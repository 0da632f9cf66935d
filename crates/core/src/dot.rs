//! Graphviz DOT export of a turn extraction — the channel-class-level
//! dependency structure a design allows, ready for `dot -Tsvg`.

use crate::extract::{Extraction, Justification};
use std::fmt::Write;

/// Renders an extraction with partitions as clusters and edges coloured by
/// the theorem that justifies them (Theorem 1 black, Theorem 2 blue,
/// Theorem 3 red) — a machine-drawn Figure 8.
pub fn extraction_dot(seq: &crate::sequence::PartitionSeq, ex: &Extraction) -> String {
    let mut out = String::from("digraph extraction {\n  rankdir=LR;\n  node [shape=box];\n");
    for (pi, p) in seq.partitions().iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{pi} {{\n    label=\"P{pi}\";");
        for c in p.channels() {
            let _ = writeln!(out, "    \"{c}\";");
        }
        out.push_str("  }\n");
    }
    for (t, j) in ex.justified_turns() {
        let color = match j {
            Justification::Theorem1 { .. } => "black",
            Justification::Theorem2 { .. } => "blue",
            Justification::Theorem3 { .. } => "red",
        };
        let _ = writeln!(out, "  \"{}\" -> \"{}\" [color={color}];", t.from, t.to);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::extract::extract_turns;

    #[test]
    fn extraction_dot_clusters_partitions() {
        let seq = catalog::fig7b_dyxy();
        let ex = extract_turns(&seq).unwrap();
        let dot = extraction_dot(&seq, &ex);
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("cluster_1"));
        assert!(dot.contains("color=red"), "Theorem 3 edges must appear");
        assert!(dot.contains("color=black"), "Theorem 1 edges must appear");
        assert_eq!(dot.matches(" -> ").count(), ex.turn_set().len());
    }
}
