//! The support-counting brute searcher against the sweep formulation it
//! replaced (`brute_ref/mod.rs`): `channels`, `pairs`, `surviving`,
//! `sweeps`, `pair_classes` and the witness are equal, field for field,
//! over 2 400 generated artifacts (seeds 7, 11, 19 at `max_nodes` 36 and
//! 64) and over hand-built cases the generator does not draw: radix-1 and
//! radix-2 dimensions, mixed wrap, a failed link, a class listed twice, a
//! universe wider than one mask word, and dateline tori of radix 4, 6, 8
//! and 16, whose 14 / 22 / 30 / 62 sweeps are the long pruning chains the
//! round arithmetic has to reproduce. Every catalog design is free on a
//! mesh by the searcher and by Dally alike.
//!
//! `sweeps` is derived, not counted (see `brute::search`): a channel runs
//! out of holders at the latest `(round, index)` any holder dies at, and a
//! pair wanting it dies in that round if its own index comes after, one
//! round later otherwise. Both halves of that rule were mutation-checked
//! against this file, and each mutation fails it:
//!
//! * flipping the comparison (`j < after` → `j >= after`) fails all three
//!   tests: sweep counts come out one short or one over (13 for 14 on the
//!   radix-4 dateline torus, 5 for 4 on the 2×5 half-wrapped mesh);
//! * starting a never-held channel at round 0 instead of round 1 fails all
//!   three as well: a death in round 0 reads as survival, so free designs
//!   report survivors and a witness.

mod brute_ref;
#[path = "../../core/tests/designs/mod.rs"]
mod designs;

use ebda_cdg::dally::{design_universe, infer_vcs};
use ebda_cdg::Topology;
use ebda_core::{
    catalog, extract_turns, parse_channels, Channel, Dimension, Direction, Turn, TurnSet,
};
use ebda_oracle::brute::{self, BruteReport};
use ebda_oracle::Generator;

/// Every field the report has, the witness through its `Debug` form.
fn fields(r: &BruteReport) -> (usize, usize, usize, usize, &[(u16, u16)], String) {
    (
        r.channels,
        r.pairs,
        r.surviving,
        r.sweeps,
        &r.pair_classes,
        format!("{:?}", r.witness),
    )
}

/// Runs both searchers and returns the (equal) report.
fn agree(
    what: &str,
    topo: &Topology,
    vcs: &[u8],
    universe: &[Channel],
    turns: &TurnSet,
) -> BruteReport {
    let new = brute::search(topo, vcs, universe, turns);
    let old = brute_ref::search(topo, vcs, universe, turns);
    assert_eq!(fields(&new), fields(&old), "{what}");
    new
}

fn all_turns(universe: &[Channel]) -> TurnSet {
    let pairs = universe
        .iter()
        .flat_map(|&a| universe.iter().map(move |&b| (a, b)));
    pairs
        .filter(|(a, b)| a != b)
        .map(|(a, b)| Turn::new(a, b))
        .collect()
}

#[test]
fn generated_artifacts_agree() {
    let (mut checked, mut deepest, mut deadlocking) = (0, 0, 0);
    for seed in [7, 11, 19] {
        for max_nodes in [36, 64] {
            let mut generator = Generator::with_max_nodes(seed, max_nodes);
            for _ in 0..400 {
                let a = generator.next_artifact();
                let r = agree(&a.summary(), &a.topology(), &a.vcs, &a.universe, &a.turns);
                checked += 1;
                deepest = deepest.max(r.sweeps);
                deadlocking += usize::from(!r.is_deadlock_free());
            }
        }
    }
    // The stream really has what the comparison is claimed over.
    assert_eq!(checked, 2_400);
    assert!(deepest >= 40, "deepest pruning chain {deepest} sweeps");
    assert!(deadlocking > 1_000 && deadlocking < 2_000, "{deadlocking}");
}

#[test]
fn dateline_tori_keep_their_sweep_counts() {
    for (radix, sweeps) in [(4usize, 14), (6, 22), (8, 30), (16, 62)] {
        let radix = vec![radix; 2];
        let seq = catalog::torus_dateline(&radix);
        let universe = design_universe(&seq);
        let vcs = infer_vcs(&universe, 2);
        let turns = extract_turns(&seq).unwrap().into_turn_set();
        let r = agree(
            &format!("dateline {radix:?}"),
            &Topology::torus(&radix),
            &vcs,
            &universe,
            &turns,
        );
        assert!(r.is_deadlock_free());
        assert_eq!((r.surviving, r.sweeps), (0, sweeps), "radix {radix:?}");
    }
}

#[test]
fn hand_built_shapes_agree() {
    let xy = parse_channels("X+ X- Y+ Y-").unwrap();
    let xyz = parse_channels("X+ X- Y+ Y- Z+ Z-").unwrap();
    let straight = TurnSet::new();
    let west_first = extract_turns(&catalog::p1_xy()).unwrap().into_turn_set();

    // Radix 1: the dimension has no links at all, wrapped or not.
    for wrap in [[false, false], [true, true]] {
        let topo = Topology::mesh(&[1, 4]).with_wrap(&wrap);
        let r = agree("radix 1", &topo, &[1, 1], &xy, &all_turns(&xy));
        assert_eq!(r.channels, if wrap[1] { 8 } else { 6 });
    }
    let r = agree(
        "a single node",
        &Topology::torus(&[1, 1]),
        &[1, 1],
        &xy,
        &all_turns(&xy),
    );
    assert_eq!((r.channels, r.pairs, r.sweeps), (0, 0, 1));

    // Radix 2 wrapped: `+` and `-` are two links to the same neighbour.
    for turns in [&straight, &west_first, &all_turns(&xy)] {
        agree(
            "radix 2 torus",
            &Topology::torus(&[2, 2]),
            &[1, 1],
            &xy,
            turns,
        );
        agree(
            "radix 2 mesh",
            &Topology::mesh(&[2, 2]),
            &[1, 1],
            &xy,
            turns,
        );
        agree(
            "radix 2 beside radix 5",
            &Topology::mesh(&[2, 5]).with_wrap(&[true, false]),
            &[2, 1],
            &xy,
            turns,
        );
    }

    // Mixed wrap in three dimensions, mixed VC budgets.
    for wrap in [[true, false, false], [false, true, true]] {
        let topo = Topology::mesh(&[3, 4, 2]).with_wrap(&wrap);
        agree("mixed wrap, straight", &topo, &[1, 2, 1], &xyz, &straight);
        agree("mixed wrap, all", &topo, &[1, 2, 1], &xyz, &all_turns(&xyz));
    }

    // A failed link takes both directions out of the enumeration.
    let whole = Topology::torus(&[4, 4]);
    let cut = whole
        .clone()
        .with_failed_link(5, Dimension::X, Direction::Plus);
    let (before, after) = (
        agree("whole ring", &whole, &[1, 1], &xy, &straight),
        agree("cut ring", &cut, &[1, 1], &xy, &straight),
    );
    assert_eq!(after.channels + 2, before.channels);
    assert!(after.surviving < before.surviving, "one ring drains");
    assert!(after.sweeps > 2, "link by link: {} sweeps", after.sweeps);

    // A class listed twice is two rows and two columns of the class
    // matrices and shows up under both indices in `pair_classes`.
    let mut twice = xy.clone();
    twice.push(xy[0]);
    let r = agree(
        "duplicated class",
        &Topology::mesh(&[3, 3]),
        &[1, 1],
        &twice,
        &west_first,
    );
    assert!(r.pair_classes.contains(&(0, 4)) && r.pair_classes.contains(&(4, 0)));

    // 68 classes: the class masks span two words.
    let mut wide = Vec::new();
    for dim in [Dimension::X, Dimension::Y] {
        for dir in [Direction::Plus, Direction::Minus] {
            wide.extend((1..=17).map(|vc| Channel::with_vc(dim, dir, vc)));
        }
    }
    let x_then_y: TurnSet = all_turns(&wide)
        .iter()
        .filter(|t| t.from.dim == Dimension::X && t.to.dim == Dimension::Y)
        .collect();
    let free = agree(
        "wide, free",
        &Topology::mesh(&[3, 3]),
        &[17, 17],
        &wide,
        &x_then_y,
    );
    assert!(free.is_deadlock_free() && free.pair_classes.iter().any(|&(a, b)| a < 64 && b >= 64));
    let stuck = agree(
        "wide, deadlocking",
        &Topology::mesh(&[3, 3]).with_wrap(&[false, true]),
        &[17, 17],
        &wide,
        &all_turns(&wide),
    );
    assert!(!stuck.is_deadlock_free());
}

#[test]
fn agrees_with_dally_on_every_catalog_design() {
    for (name, seq) in designs::all_designs() {
        let universe = design_universe(&seq);
        let dims = universe.iter().map(|c| c.dim.index() + 1).max().unwrap();
        let vcs = infer_vcs(&universe, dims);
        let turns = extract_turns(&seq).unwrap().into_turn_set();
        let topo = Topology::mesh(&vec![3; dims]);
        let dally = ebda_cdg::verify_turn_set(&topo, &vcs, &universe, &turns);
        let brute = brute::search(&topo, &vcs, &universe, &turns);
        assert_eq!(
            dally.is_deadlock_free(),
            brute.is_deadlock_free(),
            "{name}: dally and brute must agree ({dally} vs {brute})"
        );
        assert!(brute.is_deadlock_free(), "{name} must be free on a mesh");
    }
}
