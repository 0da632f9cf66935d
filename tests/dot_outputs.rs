//! Structural checks of the Graphviz export `ebda turns --dot` prints:
//! the DOT document is well-formed, its edge count matches the
//! extraction, and the styling conventions hold.

use ebda::core::dot::extraction_dot;
use ebda::prelude::*;

#[test]
fn extraction_dot_carries_theorem_colors() {
    let seq = catalog::fig9b();
    let ex = extract_turns(&seq).unwrap();
    let dot = extraction_dot(&seq, &ex);
    // One cluster per partition.
    for p in 0..seq.len() {
        assert!(dot.contains(&format!("cluster_{p}")));
    }
    // All three theorem colours appear for this design.
    for color in ["color=black", "color=blue", "color=red"] {
        assert!(dot.contains(color), "missing {color}");
    }
    assert_eq!(dot.matches(" -> ").count(), ex.turn_set().len());
}
