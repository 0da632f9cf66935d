//! Canonical content hashing of verification problems.
//!
//! A verification problem — a concrete topology shape, a per-dimension VC
//! budget, a channel-class universe, and a turn relation — is identified
//! by a canonical 64-bit content hash. *Canonical* means the hash is
//! independent of how the caller happened to enumerate the channels or
//! turns: the encoding sorts both before hashing, so two descriptions of
//! the same design always collide (on purpose).
//!
//! The hash is the address of corpus entries on disk
//! (`corpus/seed/<hash>.json`) and the key a persistent verdict cache can
//! use to skip re-verifying a design it has already decided.

use crate::{Channel, Turn, TurnSet};
use ebda_obs::json::{write_u64, Fnv1a};
use std::fmt;

/// Version tag folded into every canonical encoding. Bump when the
/// encoding (not the design) changes, so stale caches cannot alias.
pub(crate) const CANONICAL_VERSION: u32 = 1;

/// Writes the canonical encoding into `out`: a hasher for
/// [`canonical_hash`], a `String` for the tests that pin its text.
fn encode<W: fmt::Write>(
    out: &mut W,
    radix: &[usize],
    wrap: &[bool],
    vcs: &[u8],
    universe: &[Channel],
    turns: &TurnSet,
) -> fmt::Result {
    fn comma<W: fmt::Write>(out: &mut W, i: usize) -> fmt::Result {
        if i > 0 {
            out.write_char(',')?;
        }
        Ok(())
    }
    out.write_str("ebda-canonical-v")?;
    write_u64(out, u64::from(CANONICAL_VERSION))?;
    out.write_str("|radix=")?;
    for (i, &r) in radix.iter().enumerate() {
        comma(out, i)?;
        write_u64(out, r as u64)?;
    }
    out.write_str("|wrap=")?;
    for (i, &w) in wrap.iter().enumerate() {
        comma(out, i)?;
        out.write_char(if w { '1' } else { '0' })?;
    }
    out.write_str("|vcs=")?;
    for (i, &v) in vcs.iter().enumerate() {
        comma(out, i)?;
        write_u64(out, u64::from(v))?;
    }
    out.write_str("|universe=")?;
    // The channels go in sorted by their *text* and deduplicated: all
    // renderings share one buffer, and the sort moves spans of it.
    let mut text = String::new();
    let mut spans = Vec::with_capacity(universe.len());
    for c in universe {
        let start = text.len();
        c.write_to(&mut text)?;
        spans.push(start..text.len());
    }
    spans.sort_unstable_by(|a, b| text[a.clone()].cmp(&text[b.clone()]));
    spans.dedup_by(|a, b| text[a.clone()] == text[b.clone()]);
    for (i, span) in spans.into_iter().enumerate() {
        comma(out, i)?;
        out.write_str(&text[span])?;
    }
    out.write_str("|turns=")?;
    // `TurnSet` iterates in sorted order already; render as `from>to`.
    for (i, t) in turns.iter().enumerate() {
        comma(out, i)?;
        write_turn(out, t)?;
    }
    Ok(())
}

/// Writes a turn as `from>to`: its rendering in the canonical encoding
/// and in every document that lists turns (provenance, corpus entries).
pub fn write_turn<W: fmt::Write>(out: &mut W, turn: Turn) -> fmt::Result {
    turn.from.write_to(out)?;
    out.write_char('>')?;
    turn.to.write_to(out)
}

/// Parses the `from>to` rendering of [`write_turn`].
///
/// # Errors
///
/// Says what is wrong with `s`: no `>`, a channel that does not parse,
/// or the same class on both sides (which [`Turn::new`] would panic on).
pub fn parse_turn(s: &str) -> Result<Turn, String> {
    let (from, to) = s
        .split_once('>')
        .ok_or_else(|| format!("turn {s:?} must look like X1+>Y1+"))?;
    let from = Channel::parse(from).map_err(|e| format!("turn {s:?}: {e}"))?;
    let to = Channel::parse(to).map_err(|e| format!("turn {s:?}: {e}"))?;
    if from == to {
        return Err(format!("turn {s:?} joins a channel class to itself"));
    }
    Ok(Turn::new(from, to))
}

/// The canonical 64-bit content hash of a verification problem: FNV-1a
/// over its canonical text encoding (a single line with sorted channel
/// and turn renderings), hashed as it is encoded. Deterministic across
/// runs, platforms and enumeration orders.
pub fn canonical_hash(
    radix: &[usize],
    wrap: &[bool],
    vcs: &[u8],
    universe: &[Channel],
    turns: &TurnSet,
) -> u64 {
    let mut hash = Fnv1a::new();
    encode(&mut hash, radix, wrap, vcs, universe, turns).expect("hashing cannot fail");
    hash.finish()
}

/// Renders a canonical hash as the fixed-width lowercase hex used in
/// corpus file names.
pub fn hash_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, extract_turns, parse_channels};

    /// The canonical text encoding [`canonical_hash`] hashes.
    fn canonical_string(
        radix: &[usize],
        wrap: &[bool],
        vcs: &[u8],
        universe: &[Channel],
        turns: &TurnSet,
    ) -> String {
        let mut out = String::new();
        encode(&mut out, radix, wrap, vcs, universe, turns)
            .expect("writing to a String cannot fail");
        out
    }

    #[test]
    fn hash_ignores_universe_order() {
        let turns = TurnSet::new();
        let a = parse_channels("X+ X- Y+ Y-").unwrap();
        let mut b = a.clone();
        b.reverse();
        assert_eq!(
            canonical_hash(&[4, 4], &[false; 2], &[1, 1], &a, &turns),
            canonical_hash(&[4, 4], &[false; 2], &[1, 1], &b, &turns),
        );
    }

    #[test]
    fn hash_distinguishes_every_field() {
        let turns = TurnSet::new();
        let universe = parse_channels("X+ X-").unwrap();
        let base = canonical_hash(&[4, 4], &[false; 2], &[1, 1], &universe, &turns);
        assert_ne!(
            base,
            canonical_hash(&[4, 3], &[false; 2], &[1, 1], &universe, &turns)
        );
        assert_ne!(
            base,
            canonical_hash(&[4, 4], &[true, false], &[1, 1], &universe, &turns)
        );
        assert_ne!(
            base,
            canonical_hash(&[4, 4], &[false; 2], &[2, 1], &universe, &turns)
        );
        let wider = parse_channels("X+ X- Y+").unwrap();
        assert_ne!(
            base,
            canonical_hash(&[4, 4], &[false; 2], &[1, 1], &wider, &turns)
        );
        let seq = catalog::p3_west_first();
        let with_turns = extract_turns(&seq).unwrap().into_turn_set();
        assert_ne!(
            base,
            canonical_hash(&[4, 4], &[false; 2], &[1, 1], &universe, &with_turns)
        );
    }

    #[test]
    fn coordinate_restricted_channels_render_distinctly() {
        // Dateline designs differ from plain designs only in channel
        // classes; the hash must see that.
        let seq = catalog::dateline_design(&[4, 4], &[true, true]);
        let plain = crate::PartitionSeq::parse("X1+ X1- | Y1+ Y1-").unwrap();
        let t1 = extract_turns(&seq).unwrap().into_turn_set();
        let t2 = extract_turns(&plain).unwrap().into_turn_set();
        assert_ne!(
            canonical_hash(&[4, 4], &[true, true], &[2, 2], &seq.channels(), &t1),
            canonical_hash(&[4, 4], &[true, true], &[1, 1], &plain.channels(), &t2),
        );
    }

    #[test]
    fn hex_rendering_is_fixed_width() {
        assert_eq!(hash_hex(0), "0000000000000000");
        assert_eq!(hash_hex(u64::MAX), "ffffffffffffffff");
        assert_eq!(hash_hex(0xabc), "0000000000000abc");
    }

    #[test]
    fn the_streamed_hash_is_the_hash_of_the_string() {
        let seq = catalog::dateline_design(&[4, 4], &[true, true]);
        let turns = extract_turns(&seq).unwrap().into_turn_set();
        // Out of order and with a duplicate, so the sort and dedup matter.
        let mut universe = seq.channels();
        universe.reverse();
        universe.push(universe[0]);
        let args = (&[4usize, 4][..], &[true, true][..], &[2u8, 2][..]);
        let text = canonical_string(args.0, args.1, args.2, &universe, &turns);
        let mut whole = Fnv1a::new();
        whole.update(text.as_bytes());
        assert_eq!(
            canonical_hash(args.0, args.1, args.2, &universe, &turns),
            whole.finish()
        );
        assert_eq!(
            text,
            canonical_string(args.0, args.1, args.2, &seq.channels(), &turns)
        );
        assert!(
            text.contains("|universe=X1+[X!=3],X1-[X!=0],X2+[X!=3],X2+[X=3],"),
            "{text}"
        );
    }

    #[test]
    fn turns_round_trip_in_the_arrow_notation() {
        let seq = catalog::dateline_design(&[4, 4], &[true, false]);
        for turn in extract_turns(&seq).unwrap().into_turn_set().iter() {
            let mut text = String::new();
            write_turn(&mut text, turn).unwrap();
            assert_eq!(text, format!("{}>{}", turn.from, turn.to));
            assert_eq!(parse_turn(&text), Ok(turn));
        }
        for bad in ["X1+", "X1+>", "X1+>Q", "X1+>X1+", " X+ > X1+ "] {
            assert!(parse_turn(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn canonical_string_shape() {
        let s = canonical_string(
            &[3, 3],
            &[true, false],
            &[1, 2],
            &parse_channels("Y+ X+").unwrap(),
            &TurnSet::new(),
        );
        assert_eq!(
            s,
            "ebda-canonical-v1|radix=3,3|wrap=1,0|vcs=1,2|universe=X1+,Y1+|turns="
        );
    }
}
