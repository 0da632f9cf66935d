//! Figures 3–9 of the paper.

use crate::{compass_turn, print_extraction};
use ebda_cdg::{verify_design, Topology};
use ebda_core::adaptiveness::{
    adaptiveness_profile, fig4_turn_counts, is_fully_adaptive, region_is_fully_adaptive,
};
use ebda_core::algorithm1::partition_sets;
use ebda_core::extract::Justification;
use ebda_core::min_channels::{
    merged_partitioning, min_channels, region_partitioning, vcs_per_dimension,
};
use ebda_core::sets::DimensionSet;
use ebda_core::{
    catalog, extract_turns, parse_channels, Channel, Dimension, Direction, PartitionSeq, Turn,
    TurnKind,
};

/// Regenerates Figure 3: a missing direction breaks the cycle — the
/// partition `{X+ X- Y-}` permits exactly the WS, SE, ES and SW turns.
pub(super) fn fig3() {
    let seq = PartitionSeq::parse("X+ X- Y-").expect("static design");
    println!("partition: {seq}  (every direction but North)");
    let ex = extract_turns(&seq).expect("valid design");
    let ninety: Vec<String> = ex
        .turn_set()
        .of_kind(TurnKind::Ninety)
        .map(compass_turn)
        .collect();
    println!("allowed 90-degree turns: {}", ninety.join(", "));
    assert_eq!(ninety.len(), 4, "paper: WS, SE, ES, SW");
    for expected in ["W1S1", "S1E1", "E1S1", "S1W1"] {
        assert!(ninety.contains(&expected.to_string()), "missing {expected}");
    }
    let report = verify_design(&Topology::mesh(&[6, 6]), &seq).expect("valid");
    assert!(report.is_deadlock_free());
    println!("verified: {report}");
    println!("paper match: the formed turns by X+, X-, Y- are WS, SE, ES, SW — reproduced");
}

fn fig4_report(label: &str, seq: &PartitionSeq) {
    let ex = extract_turns(seq).expect("valid design");
    let c = ex.turn_set().counts();
    let u: Vec<String> = ex
        .turn_set()
        .of_kind(TurnKind::UTurn)
        .map(compass_turn)
        .collect();
    let i: Vec<String> = ex
        .turn_set()
        .of_kind(TurnKind::ITurn)
        .map(compass_turn)
        .collect();
    println!("{label}: {seq}");
    println!("  U-turns ({}): {}", u.len(), u.join(", "));
    println!("  I-turns ({}): {}", i.len(), i.join(", "));
    assert_eq!(
        (c.u_turns, c.i_turns),
        (9, 6),
        "paper: nine U- and six I-turns"
    );
}

/// Regenerates Figure 4: U-/I-turn formation with three VCs along one
/// dimension inside a partition, and the counting identity
/// `n(n-1)/2 = ab + C(a,2) + C(b,2)`.
pub(super) fn fig4() {
    // Fig. 4(a): channels numbered pair-interleaved.
    fig4_report(
        "Fig. 4a",
        &PartitionSeq::parse("Y1+ Y1- Y2+ Y2- Y3+ Y3-").expect("static"),
    );
    // Fig. 4(b): an alternative arrangement, same counts.
    fig4_report(
        "Fig. 4b",
        &PartitionSeq::parse("Y1+ Y2+ Y3+ Y1- Y2- Y3-").expect("static"),
    );
    // Fig. 4(c): the complete pair of {X+ X- Y+}: one U-turn, selectable.
    let seq = PartitionSeq::parse("X+ X- Y+").expect("static");
    let ex = extract_turns(&seq).expect("valid");
    let u: Vec<String> = ex
        .turn_set()
        .of_kind(TurnKind::UTurn)
        .map(compass_turn)
        .collect();
    println!("Fig. 4c: {seq}");
    println!(
        "  chosen U-turn: {} (E1W1 or W1E1, fixed by the numbering)",
        u.join(", ")
    );
    assert_eq!(u.len(), 1);

    // The identity, swept.
    println!("\ncounting identity n(n-1)/2 = ab + C(a,2) + C(b,2):");
    println!(
        "{:>3} {:>3} | {:>6} {:>8} {:>8}",
        "a", "b", "total", "U-turns", "I-turns"
    );
    for (a, b) in [(1u64, 1u64), (2, 1), (2, 2), (3, 3), (4, 2), (5, 5)] {
        let (total, u, i) = fig4_turn_counts(a, b);
        println!("{a:>3} {b:>3} | {total:>6} {u:>8} {i:>8}");
        assert_eq!(total, u + i);
    }
    println!("identity holds (checked exhaustively for a,b < 20 in the test suite)");
}

/// Regenerates Figure 5: the north-last derivation — `PA[X+ X- Y-] → PB[Y+]`
/// yields the north-last turn model plus its safe U-turns.
pub(super) fn fig5() {
    let seq = catalog::north_last();
    println!("design: {seq}\n");
    let ex = extract_turns(&seq).expect("valid design");
    print_extraction(&seq, &ex);

    let ninety: Vec<String> = ex
        .turn_set()
        .of_kind(TurnKind::Ninety)
        .map(compass_turn)
        .collect();
    assert_eq!(ninety.len(), 6, "north-last allows six 90-degree turns");
    let ch = |s: &str| Channel::parse(s).expect("static");
    // The NE and NW turns are prohibited (both out of North).
    assert!(!ex.turn_set().contains(Turn::new(ch("Y+"), ch("X+"))));
    assert!(!ex.turn_set().contains(Turn::new(ch("Y+"), ch("X-"))));
    // Fig. 5(b): one X U-turn; Fig. 5(c): the S->N U-turn via Theorem 3,
    // N->S naturally avoided.
    assert!(ex.turn_set().contains(Turn::new(ch("Y-"), ch("Y+"))));
    assert!(!ex.turn_set().contains(Turn::new(ch("Y+"), ch("Y-"))));

    let report = verify_design(&Topology::mesh(&[8, 8]), &seq).expect("valid");
    assert!(report.is_deadlock_free());
    println!("\nverified: {report}");
    println!("paper match: Theorem 1+3 turns = the north-last algorithm [18] — reproduced");
}

fn fig6_analyze(label: &str, seq: &PartitionSeq, topo: &Topology) {
    let ex = extract_turns(seq).expect("valid design");
    let c = ex.turn_set().counts();
    let report = verify_design(topo, seq).expect("valid");
    assert!(report.is_deadlock_free(), "{label}: {report}");
    use Direction::*;
    let regions = [
        ("NE", [Some(Plus), Some(Plus)]),
        ("SE", [Some(Plus), Some(Minus)]),
        ("SW", [Some(Minus), Some(Minus)]),
        ("NW", [Some(Minus), Some(Plus)]),
    ];
    let adaptive: Vec<&str> = regions
        .iter()
        .filter(|(_, r)| region_is_fully_adaptive(seq, r))
        .map(|(n, _)| *n)
        .collect();
    println!(
        "{label:<28} {:<42} 90deg={:<3} U={:<2} I={:<3} fully-adaptive regions: {}",
        seq.to_string(),
        c.ninety,
        c.u_turns,
        c.i_turns,
        if adaptive.is_empty() {
            "none".to_string()
        } else {
            adaptive.join(",")
        }
    );
}

/// Regenerates Figure 6: the five partitioning strategies P1–P5 of
/// Section 4 and the routing algorithms they induce.
pub(super) fn fig6() {
    let topo = Topology::mesh(&[6, 6]);
    println!("Figure 6: partitioning strategies P1-P5\n");
    fig6_analyze("P1 (XY routing)", &catalog::p1_xy(), &topo);
    fig6_analyze(
        "P2 (partially adaptive)",
        &catalog::p2_partially_adaptive(),
        &topo,
    );
    fig6_analyze("P3 (west-first)", &catalog::p3_west_first(), &topo);
    fig6_analyze("P4 (negative-first)", &catalog::p4_negative_first(), &topo);
    fig6_analyze(
        "P5 (west-first + VCs)",
        &catalog::p5_west_first_vcs(),
        &topo,
    );

    // Quantify "VCs do not enhance adaptiveness" (Fig. 6e).
    let universe4 = parse_channels("X+ X- Y+ Y-").expect("static");
    let mut universe8 = universe4.clone();
    universe8.extend(parse_channels("Y2+ Y2-").expect("static"));
    let p3 = extract_turns(&catalog::p3_west_first()).expect("valid");
    let p5 = extract_turns(&catalog::p5_west_first_vcs()).expect("valid");
    let prof3 = adaptiveness_profile(p3.turn_set(), &universe4, 4, 2);
    let prof5 = adaptiveness_profile(p5.turn_set(), &universe8, 4, 2);
    println!(
        "\nminimal-path adaptiveness on a 4x4 mesh: P3 avg {:.3}, P5 avg {:.3}",
        prof3.sum as f64 / prof3.pairs as f64,
        prof5.sum as f64 / prof5.pairs as f64,
    );
    assert_eq!(
        prof3.sum, prof5.sum,
        "adding VCs inside a partition must not change geometric adaptiveness"
    );
    println!(
        "paper match: P5's extra VCs add identical/U/I-turns but no adaptiveness — reproduced"
    );
    // P1 has 4 turns; P3/P4 reach the maximum 6 with two partitions.
    assert_eq!(
        extract_turns(&catalog::p1_xy())
            .unwrap()
            .turn_set()
            .counts()
            .ninety,
        4
    );
    for seq in [catalog::p3_west_first(), catalog::p4_negative_first()] {
        assert_eq!(extract_turns(&seq).unwrap().turn_set().counts().ninety, 6);
    }
}

fn fig7_show(label: &str, seq: &PartitionSeq, topo: &Topology) {
    let report = verify_design(topo, seq).expect("valid design");
    assert!(report.is_deadlock_free(), "{label}: {report}");
    assert!(is_fully_adaptive(seq, 2), "{label} must be fully adaptive");
    println!(
        "{label:<22} {seq}  [{} partitions, {} channels, VCs/dim {:?}]",
        seq.len(),
        seq.channel_count(),
        vcs_per_dimension(seq, 2)
    );
}

/// Regenerates Figure 7: fully adaptive 2D routing with the minimum number
/// of channels — from 4 partitions / 8 channels down to 2 partitions /
/// 6 channels (`N = (n+1)·2^(n-1) = 6`).
pub(super) fn fig7() {
    let topo = Topology::mesh(&[5, 5]);
    println!(
        "minimum channels for fully adaptive 2D routing: N = (2+1)*2^1 = {}\n",
        min_channels(2)
    );
    fig7_show("Fig. 7a (paper)", &catalog::fig7a(), &topo);
    fig7_show(
        "Fig. 7a (generated)",
        &region_partitioning(2).expect("construction"),
        &topo,
    );
    fig7_show("Fig. 7b (DyXY)", &catalog::fig7b_dyxy(), &topo);
    fig7_show(
        "Fig. 7b (generated)",
        &merged_partitioning(2).expect("construction"),
        &topo,
    );
    fig7_show("Fig. 7c", &catalog::fig7c(), &topo);

    assert_eq!(
        catalog::fig7b_dyxy().channel_count() as u64,
        min_channels(2)
    );
    assert_eq!(catalog::fig7c().channel_count() as u64, min_channels(2));
    println!(
        "\npaper match: 8-channel naive design reduces to two 6-channel designs\n\
         (1+2 or 2+1 VCs); 6 = (n+1)*2^(n-1) is the minimum — reproduced"
    );
}

/// Regenerates Figure 8: the complete per-theorem turn extraction for the
/// 3D design with 2, 2, 4 VCs along X, Y, Z (the Fig. 9b partitioning).
pub(super) fn fig8() {
    let seq = catalog::fig9b();
    println!("design: {seq}");
    println!("(E/W = X+-, N/S = Y+-, U/D = Z+-; digits are VC numbers)\n");
    let ex = extract_turns(&seq).expect("valid design");
    print_extraction(&seq, &ex);

    // The paper's box for PA lists exactly these Theorem-1 turns.
    let pa = ex.turns_for(Justification::Theorem1 { partition: 0 });
    let mut pa_turns: Vec<String> = pa.iter().map(compass_turn).collect();
    pa_turns.sort();
    let mut expected = vec![
        "E1U1", "E1D1", "E1N1", "N1U1", "N1D1", "N1E1", "U1E1", "U1N1", "D1E1", "D1N1",
    ];
    expected.sort_unstable();
    assert_eq!(pa_turns, expected, "PA Theorem-1 turns must match Fig. 8");

    // Each partition: 10 Theorem-1 turns + 1 Theorem-2 U-turn; each of the
    // six ordered transitions: a full 4x4 cross product (10 90deg + U + I).
    for p in 0..4 {
        assert_eq!(
            ex.turns_for(Justification::Theorem1 { partition: p }).len(),
            10
        );
        assert_eq!(
            ex.turns_for(Justification::Theorem2 { partition: p }).len(),
            1
        );
    }
    for i in 0..4 {
        for j in (i + 1)..4 {
            let th3 = ex.turns_for(Justification::Theorem3 { from: i, to: j });
            assert_eq!(th3.len(), 16);
            assert_eq!(th3.of_kind(TurnKind::Ninety).count(), 10);
        }
    }
    let c = ex.turn_set().counts();
    println!(
        "\ntotals: {} 90-degree turns, {} U-turns, {} I-turns ({} in all)",
        c.ninety,
        c.u_turns,
        c.i_turns,
        c.total()
    );

    let report = verify_design(&Topology::mesh(&[4, 4, 4]), &seq).expect("valid");
    assert!(report.is_deadlock_free());
    println!("verified on a 4x4x4 mesh: {report}");
    println!(
        "paper match: \"all these turns can be taken simultaneously without\n\
         forming a cycle\" — confirmed by the acyclic CDG"
    );
}

fn fig9_show(label: &str, seq: &PartitionSeq, topo: &Topology) {
    let report = verify_design(topo, seq).expect("valid design");
    assert!(report.is_deadlock_free(), "{label}: {report}");
    assert!(is_fully_adaptive(seq, 3), "{label} must be fully adaptive");
    println!(
        "{label:<22} {} partitions, {} channels, VCs/dim {:?}",
        seq.len(),
        seq.channel_count(),
        vcs_per_dimension(seq, 3)
    );
    println!("   {seq}");
}

/// Regenerates Figure 9: fully adaptive 3D routing — eight partitions / 24
/// channels reduced to four partitions / 16 channels, plus the Section 5
/// worked example (3, 2, 3 VCs) that produces the Fig. 9c design.
pub(super) fn fig9() {
    let topo = Topology::mesh(&[3, 3, 3]);
    println!(
        "minimum channels for fully adaptive 3D routing: N = (3+1)*2^2 = {}\n",
        min_channels(3)
    );
    fig9_show("Fig. 9a (paper)", &catalog::fig9a(), &topo);
    fig9_show(
        "Fig. 9a (generated)",
        &region_partitioning(3).expect("construction"),
        &topo,
    );
    fig9_show("Fig. 9b (paper)", &catalog::fig9b(), &topo);
    fig9_show(
        "Fig. 9b (generated)",
        &merged_partitioning(3).expect("construction"),
        &topo,
    );
    fig9_show("Fig. 9c (paper)", &catalog::fig9c(), &topo);

    // The Section 5 worked example: Z as Set1 (interleaved), X interleaved,
    // Y sign-grouped — Algorithm 1 must output exactly Fig. 9c.
    let sets = vec![
        DimensionSet::interleaved(Dimension::Z, 3),
        DimensionSet::interleaved(Dimension::X, 3),
        DimensionSet::grouped(Dimension::Y, 2),
    ];
    let derived = partition_sets(sets).expect("algorithm 1");
    println!("\nSection 5 worked example (3,2,3 VCs), Algorithm 1 output:");
    println!("   {derived}");
    assert_eq!(
        derived,
        catalog::fig9c(),
        "Algorithm 1 must reproduce Fig. 9c"
    );
    println!("paper match: P = {{PA[Z1* X1+ Y1+]; PB[Z2* X1- Y2+]; PC[X2* Z3+ Y1-]; PD[X3* Z3- Y2-]}} — reproduced");

    assert_eq!(catalog::fig9a().channel_count(), 24);
    assert_eq!(catalog::fig9b().channel_count() as u64, min_channels(3));
    assert_eq!(catalog::fig9c().channel_count() as u64, min_channels(3));
}
