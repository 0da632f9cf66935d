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
/// is allowed — or, when `transposed`, iff `universe[j] -> universe[i]`
/// is (row `i` lists the classes that may turn onto class `i`).
/// Value-based, so duplicate universe entries get equal rows and equal
/// columns.
///
/// One sorted walk: the universe's indices, sorted by class, sit past
/// the rows while they are written. Turns come in `(from, to)` order, so
/// one cursor moves forward through the sorted classes to each `from`
/// and a second, back at the start for each new `from`, to each of its
/// `to`s — O(k log k + turns + k · distinct froms + pairs set).
pub(crate) fn allow_rows(
    universe: &[Channel],
    turns: &TurnSet,
    transposed: bool,
    rows: &mut Vec<u64>,
) {
    let (k, words) = (universe.len(), words_for(universe.len()));
    rows.clear();
    rows.resize(k * words + k, 0);
    let (bits, sorted) = rows.split_at_mut(k * words);
    for (at, i) in sorted.iter_mut().enumerate() {
        *i = at as u64;
    }
    sorted.sort_unstable_by_key(|&i| universe[i as usize]);
    let class = |at: usize| universe[sorted[at] as usize];
    // The sorted positions holding `c`, found by scanning from `from` on.
    let run = |c: Channel, from: usize| {
        let start = from + (from..k).take_while(|&at| class(at) < c).count();
        start..start + (start..k).take_while(|&at| class(at) == c).count()
    };
    let mut allow = |a: usize, b: usize| {
        let (i, j) = (sorted[a] as usize, sorted[b] as usize);
        let (i, j) = if transposed { (j, i) } else { (i, j) };
        set(&mut bits[i * words..][..words], j);
    };
    // Going straight on the same class is always allowed.
    let mut same = 0..0;
    for a in 0..k {
        if a == same.end {
            same = run(class(a), a);
        }
        same.clone().for_each(|b| allow(a, b));
    }
    let (mut from_class, mut from, mut to) = (None, 0..0, 0..0);
    for t in turns.iter() {
        if from_class != Some(t.from) {
            (from_class, from, to) = (Some(t.from), run(t.from, from.end), 0..0);
        }
        if !from.is_empty() {
            to = run(t.to, to.end);
            for a in from.clone() {
                to.clone().for_each(|b| allow(a, b));
            }
        }
    }
    rows.truncate(k * words);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_core::{parse_channels, Dimension, Parity, Turn};

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

    /// Both orientations of `allow_rows`, written over a stale buffer,
    /// against `TurnSet::allows` for every ordered pair of entries.
    fn assert_rows(universe: &[Channel], turns: &TurnSet, context: &str) {
        let words = words_for(universe.len());
        for transposed in [false, true] {
            let mut rows = vec![u64::MAX; 3 * universe.len() + 5];
            allow_rows(universe, turns, transposed, &mut rows);
            assert_eq!(rows.len(), universe.len() * words, "{context}");
            for (i, &a) in universe.iter().enumerate() {
                for (j, &b) in universe.iter().enumerate() {
                    let (row, col) = if transposed { (j, i) } else { (i, j) };
                    let got = get(&rows[row * words..][..words], col);
                    assert_eq!(got, turns.allows(a, b), "{context}: {a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn allow_rows_match_the_turn_set_on_seeded_relations() {
        // By hand: a duplicate entry and a turn leaving the universe.
        let c = parse_channels("X+ Y+ X+ Y- Z+").unwrap();
        let turns = TurnSet::from_iter([Turn::new(c[0], c[1]), Turn::new(c[3], c[4])]);
        assert_rows(&c[..4], &turns, "by hand");
        // 168 distinct classes. A universe draws from the first `classes`
        // of them, so entries repeat; turns draw from the first
        // `endpoints`, so some ends lie outside the universe.
        let mut pool = Vec::new();
        for base in parse_channels("X+ X- Y+ Y- Z+ Z-").unwrap() {
            for vc in 1..=4 {
                let base = Channel::with_vc(base.dim, base.dir, vc);
                pool.extend([base, base.at_parity(Dimension::X, Parity::Even)]);
                pool.push(base.at_parity(Dimension::X, Parity::Odd));
                pool.extend((0..4).map(|x| base.at_coord(Dimension::Y, x)));
            }
        }
        let mut rng = ebda_obs::Rng64::new(0x00B1_7A0E);
        let (mut wide, mut repeated) = (0, 0);
        for round in 0..60 {
            let len = [1, 3, 8, 40, 64, 65, 100, 150][round % 8];
            let classes = 1 + rng.gen_index(pool.len());
            let endpoints = (classes + rng.gen_index(40)).min(pool.len());
            let universe: Vec<Channel> = (0..len).map(|_| pool[rng.gen_index(classes)]).collect();
            let p = [0.02, 0.2, 0.7][round % 3];
            let mut turns = TurnSet::new();
            for _ in 0..(p * (endpoints * endpoints) as f64) as usize {
                let (a, b) = (
                    pool[rng.gen_index(endpoints)],
                    pool[rng.gen_index(endpoints)],
                );
                if a != b {
                    turns.insert(Turn::new(a, b));
                }
            }
            assert_rows(&universe, &turns, &format!("round {round}"));
            assert_rows(&[], &turns, &format!("round {round}, no universe"));
            wide += usize::from(len > 64);
            let mut distinct = universe.clone();
            distinct.sort_unstable();
            distinct.dedup();
            repeated += usize::from(distinct.len() < len);
        }
        assert!(wide >= 20, "{wide} wide");
        assert!(repeated >= 30, "{repeated} repeated");
    }
}
