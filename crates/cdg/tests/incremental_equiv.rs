//! Seed-pinned property test: the incremental verifier must agree with a
//! from-scratch CDG rebuild after *every* delta of a random add-turn /
//! remove-turn sequence — verdicts at each query, and the witness cycle
//! byte-for-byte after each apply.
//!
//! Four bases cover the interesting shapes: an all-turns 4x4 mesh
//! (cyclic base, turn churn), the dateline 4x4 torus (acyclic base,
//! VC-split classes, wrap links), Table 5's partially connected 3x3x2
//! mesh (missing Z columns, so link and channel enumeration is
//! non-uniform), and Odd-Even's parity classes next to the plain ones
//! with one entry listed twice (channels matching several classes).
//! Cross-check mode is switched on, so every incremental query also
//! self-asserts against a full rebuild internally.

use ebda_cdg::dally::{design_universe, infer_vcs};
use ebda_cdg::{verify_turn_set, Cdg, IncrementalVerifier, Topology};
use ebda_core::{catalog, extract_turns, parse_channels, Channel, Dimension, Turn, TurnSet};
use ebda_obs::Rng64;

struct Scenario {
    name: &'static str,
    topo: Topology,
    vcs: Vec<u8>,
    universe: Vec<Channel>,
    turns: TurnSet,
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();

    // All class-to-class turns on a mesh: cyclic base.
    let universe = parse_channels("X+ X- Y+ Y-").unwrap();
    let mut all = TurnSet::new();
    for &a in &universe {
        for &b in &universe {
            if a != b {
                all.insert(Turn::new(a, b));
            }
        }
    }
    out.push(Scenario {
        name: "mesh-all-turns",
        topo: Topology::mesh(&[4, 4]),
        vcs: vec![1, 1],
        universe,
        turns: all,
    });

    // The dateline torus: acyclic base with VC-split channel classes.
    let seq = catalog::torus_dateline(&[4, 4]);
    let universe = design_universe(&seq);
    let topo = Topology::torus(&[4, 4]);
    out.push(Scenario {
        name: "torus-dateline",
        vcs: infer_vcs(&universe, topo.dims()),
        topo,
        turns: extract_turns(&seq).unwrap().into_turn_set(),
        universe,
    });

    // Table 5's partially connected 3D mesh: elevators only at (0,0)
    // and (2,2), so the Z channel population is column-dependent.
    let seq = catalog::table5_partial3d();
    let universe = design_universe(&seq);
    let topo = Topology::mesh(&[3, 3, 2]).with_partial_dim(Dimension::Z, [vec![0, 0], vec![2, 2]]);
    out.push(Scenario {
        name: "partial-3d",
        vcs: infer_vcs(&universe, topo.dims()),
        topo,
        turns: extract_turns(&seq).unwrap().into_turn_set(),
        universe,
    });

    // Overlapping classes: every column-parity class of Odd-Even next to
    // the plain class it splits, the first entry twice, every turn.
    let mut universe = design_universe(&catalog::odd_even());
    universe.extend(parse_channels("X+ X- Y+ Y-").unwrap());
    universe.push(universe[0]);
    let mut all = TurnSet::new();
    for &a in &universe {
        for &b in &universe {
            if a != b {
                all.insert(Turn::new(a, b));
            }
        }
    }
    out.push(Scenario {
        name: "parity-and-duplicate",
        topo: Topology::mesh(&[4, 4]),
        vcs: vec![1, 1],
        universe,
        turns: all,
    });

    out
}

#[test]
fn random_delta_sequences_match_full_rebuild() {
    // Turn queries that came back (cyclic, acyclic).
    let mut tally = (0, 0);
    for s in scenarios() {
        for seed in 0..4u64 {
            run_sequence(&s, seed, &mut tally);
        }
    }
    assert!(tally.0 >= 10 && tally.1 >= 10, "turn verdicts: {tally:?}");
}

/// Forty random turn deltas on `s`.
fn run_sequence(s: &Scenario, seed: u64, tally: &mut (u32, u32)) {
    let mut r = Rng64::new(seed * 1000 + 17);
    let mut v = IncrementalVerifier::new(
        s.topo.clone(),
        s.vcs.clone(),
        s.universe.clone(),
        s.turns.clone(),
    );
    v.set_cross_check(true);

    // Shadow state, rebuilt from scratch at every step.
    let mut turns = s.turns.clone();
    let k = s.universe.len() as u64;

    for step in 0..40 {
        let ctx = format!("{} seed {seed} step {step}", s.name);
        // A random (from, to) class pair, removed when present, added
        // when absent.
        let from = s.universe[(r.next_u64() % k) as usize];
        let to = s.universe[(r.next_u64() % k) as usize];
        if from == to {
            continue;
        }
        let t = Turn::new(from, to);
        let queried = if turns.contains(t) {
            let queried = v.query_remove_turn(t);
            turns.remove(t);
            assert_eq!(
                queried,
                v.apply_remove_turn(t),
                "{ctx}: remove query vs apply"
            );
            queried
        } else {
            let queried = v.query_add_turn(t);
            turns.insert(t);
            assert_eq!(queried, v.apply_add_turn(t), "{ctx}: add query vs apply");
            queried
        };
        *(if queried { &mut tally.1 } else { &mut tally.0 }) += 1;

        let full = verify_turn_set(&s.topo, &s.vcs, &s.universe, &turns);
        assert_eq!(
            v.is_acyclic(),
            full.is_deadlock_free(),
            "{ctx}: verdict drifted from full rebuild"
        );
        let full_cycle = Cdg::from_turn_set(&s.topo, &s.vcs, &s.universe, &turns).find_cycle();
        assert_eq!(
            format!("{:?}", v.find_cycle()),
            format!("{full_cycle:?}"),
            "{ctx}: witness cycle drifted from full rebuild"
        );
    }
}
