//! Golden regression values for the catalog designs: adaptiveness
//! profiles, turn inventories and region splits pinned so behavioural
//! drift is caught immediately.

use ebda_core::adaptiveness::{
    adaptiveness_profile, is_fully_adaptive, region_classes, RegionClass,
};
use ebda_core::min_channels::min_channels;
use ebda_core::{catalog, extract_turns, PartitionSeq};

mod designs;
use designs::{all_designs, planar_adaptive};

fn profile(seq: &PartitionSeq) -> ebda_core::adaptiveness::AdaptivenessProfile {
    let ex = extract_turns(seq).unwrap();
    adaptiveness_profile(ex.turn_set(), &seq.channels(), 4, 2)
}

#[test]
fn adaptiveness_profiles_locked() {
    // 4x4 mesh, 240 ordered pairs.
    let xy = profile(&catalog::p1_xy());
    assert_eq!((xy.min, xy.max), (1, 1));
    assert_eq!(xy.sum, 240, "XY: exactly one path per pair");

    let wf = profile(&catalog::p3_west_first());
    assert_eq!(wf.min, 1);
    assert_eq!(wf.max, 20, "3+3 offsets fully adaptive: C(6,3) = 20");
    assert_eq!(wf.sum, 492, "west-first path budget on 4x4");

    let nf = profile(&catalog::p4_negative_first());
    assert_eq!(nf.sum, wf.sum, "negative-first is west-first's mirror");

    let fa = profile(&catalog::fig7b_dyxy());
    assert_eq!(
        fa.fully_adaptive_pairs, fa.pairs,
        "the 6-channel design is fully adaptive everywhere"
    );
    assert_eq!(fa.sum, 744, "full multinomial budget on 4x4");

    let oe = profile(&catalog::odd_even());
    assert!(oe.sum > xy.sum && oe.sum < fa.sum);
    assert_eq!(oe.min, 1);
}

#[test]
fn turn_inventories_locked() {
    let counts = |seq: &PartitionSeq| extract_turns(seq).unwrap().turn_set().counts();
    let c = counts(&catalog::p1_xy());
    assert_eq!((c.ninety, c.u_turns, c.i_turns), (4, 2, 0));
    let c = counts(&catalog::p3_west_first());
    assert_eq!((c.ninety, c.u_turns, c.i_turns), (6, 2, 0));
    let c = counts(&catalog::north_last());
    assert_eq!((c.ninety, c.u_turns, c.i_turns), (6, 2, 0));
    let c = counts(&catalog::fig7b_dyxy());
    assert_eq!(c.ninety, 12);
    let c = counts(&catalog::fig9b());
    assert_eq!((c.ninety, c.u_turns, c.i_turns), (100, 24, 16));
    let c = counts(&catalog::table5_partial3d());
    assert_eq!(c.ninety, 30);
}

#[test]
fn region_splits_locked() {
    let count = |seq: &PartitionSeq, class: RegionClass| {
        let ex = extract_turns(seq).unwrap();
        region_classes(ex.turn_set(), &seq.channels(), 3, 2)
            .into_iter()
            .filter(|(_, c)| *c == class)
            .count()
    };
    // XY: 4 deterministic quadrants.
    assert_eq!(count(&catalog::p1_xy(), RegionClass::Deterministic), 4);
    // West-first: 2 fully adaptive (east), 2 deterministic (west).
    assert_eq!(
        count(&catalog::p3_west_first(), RegionClass::FullyAdaptive),
        2
    );
    assert_eq!(
        count(&catalog::p3_west_first(), RegionClass::Deterministic),
        2
    );
    // The 6-channel designs: all 4 quadrants fully adaptive.
    for seq in [catalog::fig7b_dyxy(), catalog::fig7c()] {
        assert_eq!(count(&seq, RegionClass::FullyAdaptive), 4);
    }
    // P2: fully adaptive only in NE.
    assert_eq!(
        count(
            &catalog::p2_partially_adaptive(),
            RegionClass::FullyAdaptive
        ),
        1
    );
}

#[test]
fn every_catalog_design_round_trips_through_display() {
    for (name, seq) in all_designs() {
        // Designs without parity/coordinate classes round-trip textually.
        let text = seq.to_string();
        if text.contains('[') && !text.contains('=') {
            let spec = text.replace(['[', ']'], " ").replace(" -> ", "|");
            let reparsed = PartitionSeq::parse(&spec).unwrap();
            assert_eq!(reparsed, seq, "{name} failed textual round-trip");
        }
    }
}

#[test]
fn planar_adaptive_construction() {
    // n = 2 degenerates to the Fig. 7b design.
    assert_eq!(planar_adaptive(2), catalog::fig7b_dyxy());
    for n in 2..=5usize {
        let seq = planar_adaptive(n);
        assert!(seq.validate().is_ok(), "n={n}");
        assert_eq!(seq.len(), 2 * (n - 1));
        assert_eq!(seq.channel_count(), 6 * (n - 1));
        // Partially adaptive for n >= 3: cheaper than full adaptiveness.
        if n >= 3 {
            assert!((seq.channel_count() as u64) < min_channels(n as u32));
            assert!(!is_fully_adaptive(&seq, n));
        }
    }
}
