//! Clock-free pins of the incremental verifier's work units, on the
//! artifact `bench_report` times as `shrink/turn-ring-cdg`: six turns
//! forming one class-level ring on a 2x2x2 mesh, shrunk while Dally's
//! CDG stays cyclic. Every candidate — six turn drops, six channel
//! drops — breaks the ring, so the shrinker asks twelve queries and
//! keeps none.
//!
//! Each verdict the verifier takes is either a hit on the cycle kept
//! from the verdict before (`witness_hits`) or a search of the skeleton
//! (`searches`); none builds a graph. The counts are deterministic, so
//! the engine is gated by exact equality.
//!
//! One test function: the profiler is process-global.

use ebda_core::{parse_channels, Turn, TurnSet};
use ebda_obs::prof;
use ebda_oracle::artifact::{Artifact, ArtifactKind};
use ebda_oracle::incr::shrink_while_cyclic;
use ebda_oracle::shrink::DEFAULT_SHRINK_BUDGET;

/// Measured, like every golden: the all-turns base shrinks in three
/// accepted steps (a verifier and its first verdict each), six queries.
const QUERIES_MESH: u64 = 6;
const SEARCHES_MESH: u64 = 8;
const HITS_MESH: u64 = 1;

fn turn_ring() -> Artifact {
    let ring = ["X+", "Y+", "Z+", "X-", "Y-", "Z-", "X+"];
    let turn = |w: &[&str]| Turn::new(w[0].parse().unwrap(), w[1].parse().unwrap());
    Artifact {
        id: 0,
        kind: ArtifactKind::RandomTurns,
        radix: vec![2, 2, 2],
        wrap: vec![false, false, false],
        vcs: vec![1, 1, 1],
        universe: parse_channels("X+ X- Y+ Y- Z+ Z-").unwrap(),
        turns: ring.windows(2).map(turn).collect::<TurnSet>(),
        design: None,
    }
}

/// Every class-to-class turn on a 2x2 mesh (the structural floor): most drops leave a ring
/// standing.
fn all_turns_mesh() -> Artifact {
    let universe = parse_channels("X+ X- Y+ Y-").unwrap();
    let pairs = universe
        .iter()
        .flat_map(|&a| universe.iter().map(move |&b| (a, b)));
    Artifact {
        id: 0,
        kind: ArtifactKind::RandomTurns,
        radix: vec![2, 2],
        wrap: vec![false, false],
        vcs: vec![1, 1],
        turns: (pairs.filter(|(a, b)| a != b).map(|(a, b)| Turn::new(a, b))).collect(),
        universe,
        design: None,
    }
}

/// Shrinks `start` with the profiler on; returns the shrunk artifact
/// and readers of a phase's work units and call count (0 when never
/// charged).
fn profiled(start: &Artifact) -> (Artifact, impl Fn(&str, &str) -> u64, impl Fn(&str) -> u64) {
    prof::reset();
    prof::set_enabled(true);
    let small = shrink_while_cyclic(start, DEFAULT_SHRINK_BUDGET);
    prof::set_enabled(false);
    let phases = std::rc::Rc::new(prof::snapshot().phases);
    let of = phases.clone();
    let work = move |phase: &str, unit: &str| {
        let stat = of.get(phase);
        stat.and_then(|s| s.work.get(unit)).copied().unwrap_or(0)
    };
    let calls = move |phase: &str| phases.get(phase).map_or(0, |s| s.calls);
    (small, work, calls)
}

#[test]
fn every_shrink_verdict_is_a_kept_cycle_or_a_search_and_none_is_a_graph() {
    let start = turn_ring();
    let (small, work, calls) = profiled(&start);
    assert_eq!(small, start, "the turn ring is already 1-minimal");
    assert_eq!(work("oracle/shrink", "shrink_evals"), 12);
    assert_eq!(work("incr", "queries"), 12);
    // The base's own verdict, then one search per candidate: each drop
    // breaks the only ring, so the kept cycle never survives.
    assert_eq!(work("incr", "searches"), 13);
    assert_eq!(work("incr", "witness_hits"), 0);
    assert_eq!(calls("cdg/csr_build"), 0);
    assert_eq!(calls("cdg/cycle"), 0);

    // A base with rings to spare: a drop that misses the kept cycle is
    // decided by re-validating it.
    let (small, work, calls) = profiled(&all_turns_mesh());
    assert_eq!(small.turns.len(), 2, "one pair of U-turns is left");
    assert_eq!(work("incr", "queries"), QUERIES_MESH);
    assert_eq!(work("incr", "searches"), SEARCHES_MESH);
    assert_eq!(work("incr", "witness_hits"), HITS_MESH);
    assert_eq!(calls("cdg/cycle"), 0);
}
