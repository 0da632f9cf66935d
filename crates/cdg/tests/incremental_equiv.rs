//! Seed-pinned property test: the incremental verifier must agree with a
//! from-scratch CDG rebuild after *every* delta of a random add-turn /
//! remove-turn / drop-class / fail-link sequence — verdicts at each
//! query, and the witness cycle byte-for-byte after each apply.
//!
//! Four bases cover the interesting shapes: an all-turns 4x4 mesh
//! (cyclic base, turn churn), the dateline 4x4 torus (acyclic base,
//! VC-split classes, wrap links), Table 5's partially connected 3x3x2
//! mesh (missing Z columns, so link and channel enumeration is
//! non-uniform), and Odd-Even's parity classes next to the plain ones
//! with one entry listed twice (channels matching several classes).
//! Each runs once with link failures drawn among the other deltas and
//! once with six of them stacked first, so that every later verdict is
//! read past dead channels. Cross-check mode is switched on, so every
//! incremental query also self-asserts against a full rebuild
//! internally.

use ebda_cdg::dally::{design_universe, infer_vcs};
use ebda_cdg::{verify_turn_set, Cdg, IncrementalVerifier, Topology};
use ebda_core::{
    catalog, extract_turns, parse_channels, Channel, Dimension, Direction, Turn, TurnSet,
};
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

/// Drop-class queries on a cyclic base that came back (cyclic, acyclic).
type Tally = (u32, u32);

#[test]
fn random_delta_sequences_match_full_rebuild() {
    let mut tally = (0, 0);
    for s in scenarios() {
        for seed in 0..4u64 {
            run_sequence(&s, seed, 0, &mut tally);
        }
    }
    assert!(
        tally.0 >= 10 && tally.1 >= 10,
        "drop-class verdicts: {tally:?}"
    );
}

#[test]
fn turn_churn_on_top_of_stacked_link_failures_matches_full_rebuild() {
    let mut tally = (0, 0);
    for s in scenarios() {
        for seed in 0..4u64 {
            run_sequence(&s, seed, 6, &mut tally);
        }
    }
    assert!(
        tally.0 >= 10 && tally.1 >= 10,
        "drop-class verdicts: {tally:?}"
    );
}

/// Forty random deltas on `s`, after `stacked` link failures made up
/// front (and then none among the deltas).
fn run_sequence(s: &Scenario, seed: u64, stacked: u32, tally: &mut Tally) {
    let mut r = Rng64::new(seed * 1000 + 17);
    let mut v = IncrementalVerifier::new(
        s.topo.clone(),
        s.vcs.clone(),
        s.universe.clone(),
        s.turns.clone(),
    );
    v.set_cross_check(true);

    // Shadow state, rebuilt from scratch at every step.
    let mut topo = s.topo.clone();
    let mut turns = s.turns.clone();
    let mut fails = 0u32;
    let dims = topo.dims();
    let nodes = topo.node_count();
    let k = s.universe.len() as u64;

    for step in 0..40 + stacked {
        let ctx = format!("{} seed {seed} step {step}", s.name);
        let delta = if step < stacked { 3 } else { r.next_u64() % 4 };
        match delta {
            0 | 1 => {
                // Turn churn: a random (from, to) class pair, removed
                // when present, added when absent.
                let from = s.universe[(r.next_u64() % k) as usize];
                let to = s.universe[(r.next_u64() % k) as usize];
                if from == to {
                    continue;
                }
                let t = Turn::new(from, to);
                if turns.contains(t) {
                    let queried = v.query_remove_turn(t);
                    turns.remove(t);
                    let applied = v.apply_remove_turn(t);
                    assert_eq!(queried, applied, "{ctx}: remove query vs apply");
                } else {
                    let queried = v.query_add_turn(t);
                    turns.insert(t);
                    let applied = v.apply_add_turn(t);
                    assert_eq!(queried, applied, "{ctx}: add query vs apply");
                }
            }
            2 => {
                // Dropping a channel class is a query only (the shrinker
                // rebuilds on the accepted candidate): every entry equal
                // to the victim goes, with the turns touching it.
                let victim = s.universe[(r.next_u64() % k) as usize];
                let queried = v.query_remove_channel(victim);
                let universe: Vec<Channel> =
                    (s.universe.iter().copied().filter(|&c| c != victim)).collect();
                let kept = |t: &Turn| t.from != victim && t.to != victim;
                let kept: TurnSet = turns.iter().filter(kept).collect();
                let full = verify_turn_set(&topo, &s.vcs, &universe, &kept);
                assert_eq!(queried, full.is_deadlock_free(), "{ctx}: drop {victim}");
                if !v.is_acyclic() {
                    *(if queried { &mut tally.1 } else { &mut tally.0 }) += 1;
                }
            }
            _ => {
                // Link failure (cumulative, capped so some topology is
                // left); a nonexistent link is a legal no-op delta.
                if fails >= 6.max(stacked) || (stacked > 0 && step >= stacked) {
                    continue;
                }
                let node = (r.next_u64() % nodes as u64) as usize;
                let dim = Dimension::new((r.next_u64() % dims as u64) as u8);
                let dir = if r.next_u64().is_multiple_of(2) {
                    Direction::Plus
                } else {
                    Direction::Minus
                };
                fails += 1;
                let queried = v.query_fail_link(node, dim, dir);
                topo = topo.clone().with_failed_link(node, dim, dir);
                let applied = v.apply_fail_link(node, dim, dir);
                assert_eq!(queried, applied, "{ctx}: fail-link query vs apply");
            }
        }

        let full = verify_turn_set(&topo, &s.vcs, &s.universe, &turns);
        assert_eq!(
            v.is_acyclic(),
            full.is_deadlock_free(),
            "{ctx}: verdict drifted from full rebuild"
        );
        let full_cycle = Cdg::from_turn_set(&topo, &s.vcs, &s.universe, &turns).find_cycle();
        assert_eq!(
            format!("{:?}", v.find_cycle()),
            format!("{full_cycle:?}"),
            "{ctx}: witness cycle drifted from full rebuild"
        );
    }
}
