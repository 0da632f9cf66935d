//! # ebda-bench — experiment harness for the EbDa reproduction
//!
//! Everything behind the `ebda` executable that is not a library verdict:
//! [`repro`] regenerates each published table and figure (EXPERIMENTS.md
//! records paper-vs-measured for each), [`oracle_cli`] and [`corpus_cli`]
//! drive the campaigns, [`args`] is the one command-line reader and
//! [`trace`] the one observability session every command runs in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod corpus_cli;
pub mod oracle_cli;
pub mod repro;
pub(crate) mod sweep_matrix;
pub mod trace;

use ebda_core::extract::{Extraction, Justification};
use ebda_core::{PartitionSeq, TurnKind};

/// Parses a per-dimension VC budget like `3,2,3`.
///
/// # Errors
///
/// Names the entry that is not a small integer.
pub fn parse_vcs(spec: &str) -> Result<Vec<u8>, String> {
    spec.split(',')
        .map(|t| {
            t.trim()
                .parse::<u8>()
                .map_err(|e| format!("bad VC count {t:?}: {e}"))
        })
        .collect()
}

/// Renders a channel in the paper's compact direction notation: `X1+` →
/// `E1`, `Y2-` → `S2`, `Z1+` → `U1`; parity classes keep their `e`/`o`
/// mark (`Ye1+` → `Ne1`).
pub(crate) fn compass(c: ebda_core::Channel) -> String {
    use ebda_core::{ChannelClass, Dimension, Direction};
    let letter = match (c.dim, c.dir) {
        (Dimension::X, Direction::Plus) => "E",
        (Dimension::X, Direction::Minus) => "W",
        (Dimension::Y, Direction::Plus) => "N",
        (Dimension::Y, Direction::Minus) => "S",
        (Dimension::Z, Direction::Plus) => "U",
        (Dimension::Z, Direction::Minus) => "D",
        _ => return c.to_string(),
    };
    let parity = match c.class {
        ChannelClass::AtParity { parity, .. } => parity.to_string(),
        // Coordinate-restricted classes keep the full channel notation.
        ChannelClass::AtCoord { .. } | ChannelClass::NotAtCoord { .. } => {
            return c.to_string();
        }
        ChannelClass::All => String::new(),
    };
    format!("{letter}{parity}{}", c.vc)
}

/// Renders a turn as the paper writes them: `E1N1`, `U4D4`, `NeNo`, ….
pub(crate) fn compass_turn(t: ebda_core::Turn) -> String {
    format!("{}{}", compass(t.from), compass(t.to))
}

/// Prints one partition sequence in the `PA[..] → PB[..]` style of the
/// paper's tables.
pub(crate) fn table_entry(seq: &PartitionSeq) -> String {
    seq.partitions()
        .iter()
        .map(|p| {
            p.channels()
                .iter()
                .map(|&c| c.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Prints the grouped per-theorem turn extraction of a design, mirroring
/// the layout of Figure 8 and Tables 4–5.
pub(crate) fn print_extraction(seq: &PartitionSeq, ex: &Extraction) {
    for (pi, _) in seq.partitions().iter().enumerate() {
        println!("Partition P{pi}: {}", seq.partitions()[pi]);
        let th1 = ex.turns_for(Justification::Theorem1 { partition: pi });
        if !th1.is_empty() {
            println!("  Theorem1 turns : {}", group(&th1, None));
        }
        let th2 = ex.turns_for(Justification::Theorem2 { partition: pi });
        if !th2.is_empty() {
            println!("  Theorem2 U/I   : {}", group(&th2, None));
        }
        for pj in 0..pi {
            let th3 = ex.turns_for(Justification::Theorem3 { from: pj, to: pi });
            if th3.is_empty() {
                continue;
            }
            println!(
                "  Theorem3 (P{pj}->P{pi}) 90deg: {}",
                group(&th3, Some(TurnKind::Ninety))
            );
            let u = group(&th3, Some(TurnKind::UTurn));
            if !u.is_empty() {
                println!("               U-turns: {u}");
            }
            let i = group(&th3, Some(TurnKind::ITurn));
            if !i.is_empty() {
                println!("               I-turns: {i}");
            }
        }
    }
    let c = ex.turn_set().counts();
    println!("TOTAL: {c}");
}

fn group(ts: &ebda_core::TurnSet, kind: Option<TurnKind>) -> String {
    ts.iter()
        .filter(|t| kind.is_none_or(|k| t.kind() == k))
        .map(compass_turn)
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_core::{catalog, extract_turns, Channel, Turn};

    #[test]
    fn compass_notation_matches_the_paper() {
        assert_eq!(compass(Channel::parse("X1+").unwrap()), "E1");
        assert_eq!(compass(Channel::parse("X1-").unwrap()), "W1");
        assert_eq!(compass(Channel::parse("Y2+").unwrap()), "N2");
        assert_eq!(compass(Channel::parse("Z4-").unwrap()), "D4");
        assert_eq!(compass(Channel::parse("Ye1+").unwrap()), "Ne1");
        assert_eq!(compass(Channel::parse("T1+").unwrap()), "T1+");
    }

    #[test]
    fn compass_turn_formats() {
        let t = Turn::new(
            Channel::parse("X1+").unwrap(),
            Channel::parse("Y1-").unwrap(),
        );
        assert_eq!(compass_turn(t), "E1S1");
    }

    #[test]
    fn table_entry_strips_brackets() {
        let s = table_entry(&catalog::p3_west_first());
        assert_eq!(s, "X1- -> X1+ Y1+ Y1-");
    }

    #[test]
    fn print_extraction_runs() {
        let seq = catalog::north_last();
        let ex = extract_turns(&seq).unwrap();
        print_extraction(&seq, &ex);
    }
}
