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
//! The verifier runs inside [`Checked`], so every incremental query and
//! commit also asserts itself against a full rebuild.

use ebda_cdg::dally::{design_universe, infer_vcs};
use ebda_cdg::{verify_turn_set, Cdg, ConcreteChannel, IncrementalVerifier, Topology};
use ebda_core::{catalog, extract_turns, parse_channels, Channel, Dimension, Turn, TurnSet};
use ebda_obs::Rng64;
use std::ops::Deref;

/// An [`IncrementalVerifier`] whose every verdict is asserted against
/// the full rebuild of the edited design, `Cdg::from_turn_set(..)
/// .find_cycle()`, and after a commit its witness too.
struct Checked {
    verifier: IncrementalVerifier,
    topo: Topology,
    vcs: Vec<u8>,
    universe: Vec<Channel>,
}

impl Deref for Checked {
    type Target = IncrementalVerifier;

    fn deref(&self) -> &IncrementalVerifier {
        &self.verifier
    }
}

impl Checked {
    fn new(topo: Topology, vcs: Vec<u8>, universe: Vec<Channel>, turns: TurnSet) -> Checked {
        let verifier = IncrementalVerifier::new(topo.clone(), vcs.clone(), universe.clone(), turns);
        Checked {
            verifier,
            topo,
            vcs,
            universe,
        }
    }

    /// The witness of the full rebuild with `turns`, `None` when acyclic.
    fn reference(&self, turns: &TurnSet) -> Option<Vec<ConcreteChannel>> {
        Cdg::from_turn_set(&self.topo, &self.vcs, &self.universe, turns).find_cycle()
    }

    fn query_remove_turn(&self, t: Turn) -> bool {
        let got = self.verifier.query_remove_turn(t);
        let turns: TurnSet = self.turns().iter().filter(|&x| x != t).collect();
        let want = self.reference(&turns).is_none();
        assert_eq!(got, want, "incremental remove-turn verdict diverged: {t:?}");
        got
    }

    fn query_add_turn(&self, t: Turn) -> bool {
        let got = self.verifier.query_add_turn(t);
        let mut turns = self.turns().clone();
        turns.insert(t);
        let want = self.reference(&turns).is_none();
        assert_eq!(got, want, "incremental add-turn verdict diverged: {t:?}");
        got
    }

    fn apply_remove_turn(&mut self, t: Turn) -> bool {
        let got = self.verifier.apply_remove_turn(t);
        self.check_commit();
        got
    }

    fn apply_add_turn(&mut self, t: Turn) -> bool {
        let got = self.verifier.apply_add_turn(t);
        self.check_commit();
        got
    }

    fn check_commit(&self) {
        let want = self.reference(self.turns());
        assert_eq!(
            self.is_acyclic(),
            want.is_none(),
            "committed verdict diverged from full rebuild"
        );
        assert_eq!(
            self.find_cycle(),
            want,
            "committed witness diverged from full rebuild"
        );
    }
}

fn all_turns(universe: &[Channel]) -> TurnSet {
    let mut turns = TurnSet::new();
    for &a in universe {
        for &b in universe {
            if a != b {
                turns.insert(Turn::new(a, b));
            }
        }
    }
    turns
}

#[test]
fn remove_turn_queries_match_full_rebuild() {
    let topo = Topology::mesh(&[4, 4]);
    let universe = parse_channels("X+ X- Y+ Y-").unwrap();
    let turns = all_turns(&universe);
    let v = Checked::new(topo, vec![1, 1], universe, turns.clone());
    assert!(!v.is_acyclic());
    for t in turns.iter() {
        // The wrapper asserts equivalence.
        v.query_remove_turn(t);
    }
}

#[test]
fn apply_chain_drains_to_acyclic() {
    // Remove turns one at a time until the CDG goes acyclic; at every
    // step the incremental verdict and witness must match a full rebuild.
    let topo = Topology::mesh(&[3, 3]);
    let universe = parse_channels("X+ X- Y+ Y-").unwrap();
    let turns = all_turns(&universe);
    let mut v = Checked::new(topo.clone(), vec![1, 1], universe.clone(), turns.clone());
    for t in turns.iter() {
        let got = v.apply_remove_turn(t);
        let full = Cdg::from_turn_set(&topo, &[1, 1], &universe, v.turns()).is_acyclic();
        assert_eq!(got, full);
    }
    assert!(v.is_acyclic(), "no turns left: straight-only mesh CDG");
    // And back up: re-adding every turn must land on the original.
    for t in turns.iter() {
        v.apply_add_turn(t);
    }
    assert!(!v.is_acyclic());
}

#[test]
fn acyclic_base_answers_removals_for_free() {
    // North-last is acyclic: every removal query must return true
    // without a verdict (monotonicity early-exit).
    let seq = ebda_core::PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
    let ex = extract_turns(&seq).unwrap();
    let topo = Topology::mesh(&[4, 4]);
    let v = Checked::new(topo, vec![1, 1], seq.channels(), ex.turn_set().clone());
    assert!(v.is_acyclic());
    for t in ex.turn_set().clone().iter() {
        assert!(v.query_remove_turn(t));
    }
}

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
    out.push(Scenario {
        name: "mesh-all-turns",
        topo: Topology::mesh(&[4, 4]),
        vcs: vec![1, 1],
        turns: all_turns(&universe),
        universe,
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
    out.push(Scenario {
        name: "parity-and-duplicate",
        topo: Topology::mesh(&[4, 4]),
        vcs: vec![1, 1],
        turns: all_turns(&universe),
        universe,
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
    let mut v = Checked::new(
        s.topo.clone(),
        s.vcs.clone(),
        s.universe.clone(),
        s.turns.clone(),
    );

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
