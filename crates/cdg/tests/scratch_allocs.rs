//! The CDG query paths must not allocate in steady state: `find_cycle`
//! and `topological_order` run out of one thread-local scratch arena, so
//! after a warmup query on the largest graph, repeated queries perform
//! **zero** allocations.
//!
//! The two verification kernels get complexity guards that do not depend
//! on the clock: Duato's connectivity check allocates its tables once
//! per call, however many nodes there are, a skeleton sizes its arrays
//! before it fills them (the same number of allocations for a small
//! network and a large one, and for a partially connected one), its edge
//! fill allocates only the two CSR arrays it returns, a turn-model
//! enumeration allocates per *free* model only (the index vector it
//! returns), and neither a query nor a turn commit of the incremental
//! verifier allocates at all.
//!
//! Each `#[test]` warms and measures on its own thread: the scratch
//! arenas and the allocation counter are all thread-local.

mod counting_alloc;

use counting_alloc::allocs_during;
use ebda_cdg::duato::verify_escape_given;
use ebda_cdg::turn_model::deadlock_free_combinations;
use ebda_cdg::{Cdg, IncrementalVerifier, Skeleton, Topology, VerificationReport};
use ebda_core::{parse_channels, Channel, Dimension, Direction, Turn, TurnSet};

/// The four plain 2D classes with XY-style turns (acyclic on a mesh) and
/// with every turn (cyclic).
fn relations() -> (Vec<Channel>, TurnSet, TurnSet) {
    let universe = parse_channels("X+ X- Y+ Y-").unwrap();
    let mut xy = TurnSet::new();
    for &a in &universe {
        for &b in &universe {
            // X-then-Y only (same-class continuations are implicit):
            // classic XY routing, acyclic on a mesh.
            if a.dim.index() == 0 && b.dim.index() == 1 {
                xy.insert(Turn::new(a, b));
            }
        }
    }
    let mut all = TurnSet::new();
    for &a in &universe {
        for &b in &universe {
            if a != b {
                all.insert(Turn::new(a, b));
            }
        }
    }
    (universe, xy, all)
}

/// An acyclic CDG and a cyclic one, both on the same universe so they
/// share node counts.
fn graphs() -> (Cdg, Cdg) {
    let topo = Topology::mesh(&[6, 6]);
    let (universe, xy, all) = relations();
    let acyclic = Cdg::from_turn_set(&topo, &[1, 1], &universe, &xy);
    let cyclic = Cdg::from_turn_set(&topo, &[1, 1], &universe, &all);
    (acyclic, cyclic)
}

#[test]
fn query_paths_reuse_one_scratch_buffer() {
    assert!(
        !ebda_obs::prof::enabled(),
        "this test needs the profiler off"
    );
    let (acyclic, cyclic) = graphs();
    assert!(acyclic.find_cycle().is_none());
    assert!(cyclic.find_cycle().is_some());

    // Warmup: sizes the thread-local scratch to the larger graph and
    // pays any one-time lazy init (interned names etc.).
    acyclic.find_cycle();
    cyclic.find_cycle();
    acyclic.topological_order();

    // Steady state, no-witness paths: the DFS walks the CSR with
    // recycled color/stack arrays and returns no value — zero allocs.
    let n = allocs_during(|| {
        for _ in 0..10 {
            assert!(acyclic.find_cycle().is_none());
        }
    });
    assert_eq!(n, 0, "acyclic find_cycle allocated {n} times");

    // Paths that return owned results (a topological order, a witness
    // cycle) allocate exactly the result, identically run after run.
    let a = allocs_during(|| {
        assert!(acyclic.topological_order().is_some());
        assert!(cyclic.find_cycle().is_some());
    });
    let b = allocs_during(|| {
        assert!(acyclic.topological_order().is_some());
        assert!(cyclic.find_cycle().is_some());
    });
    assert_eq!(a, b, "steady-state queries must allocate identically");
    assert!(a > 0, "sanity: the counter is live");
}

#[test]
fn duato_connectivity_allocations_do_not_grow_with_the_network() {
    // One table set per call (allow rows, coordinates, next hops, the
    // distance order, the `good` rows) — nothing per source, per
    // destination or per visited state.
    let (universe, xy, _) = relations();
    let dally = VerificationReport {
        channels: 0,
        dependencies: 0,
        cycle: None,
    };
    let allocs_at = |radix: usize| {
        let topo = Topology::mesh(&[radix, radix]);
        allocs_during(|| {
            let report = verify_escape_given(&dally, &topo, &universe, &xy);
            assert!(report.escape_connected);
        })
    };
    let (small, large) = (allocs_at(4), allocs_at(8));
    assert_eq!(small, large, "16 nodes: {small} allocations, 64: {large}");
    assert!((1..=16).contains(&large), "{large} allocations per check");
}

#[test]
fn a_skeleton_sizes_its_arrays_before_filling_them() {
    // Channels, kinds and node groups are sized up front and a link
    // probe allocates nothing, on a partial dimension either: the count
    // depends neither on how large the network is nor on which links
    // the topology leaves out.
    let (universe, _, _) = relations();
    let allocs_on = |topo: &Topology, vcs: &[u8], universe: &[Channel]| {
        let mut channels = 0;
        let n = allocs_during(|| channels = Skeleton::new(topo, vcs, universe).channels().len());
        assert!(channels > 0);
        n
    };
    let small = allocs_on(&Topology::mesh(&[8, 8]), &[1, 1], &universe);
    let large = allocs_on(&Topology::mesh(&[32, 32]), &[1, 1], &universe);
    assert_eq!(small, large, "8x8: {small} allocations, 32x32: {large}");

    // Table 5's design: the elevators it is meant for, every column, and
    // a link failed on top.
    let universe = ebda_core::catalog::table5_partial3d().channels();
    let full = Topology::mesh(&[3, 3, 2]);
    let partial = full
        .clone()
        .with_partial_dim(Dimension::Z, [vec![0, 0], vec![2, 2]]);
    let failed = partial
        .clone()
        .with_failed_link(4, Dimension::X, Direction::Plus);
    let on_full = allocs_on(&full, &[1, 2, 1], &universe);
    for topo in [&partial, &failed] {
        assert_eq!(allocs_on(topo, &[1, 2, 1], &universe), on_full, "{topo:?}");
    }
    assert!((1..=16).contains(&on_full), "{on_full} allocations");
}

#[test]
fn skeleton_fill_allocates_only_the_csr_arrays() {
    let (universe, xy, all) = relations();
    let skeleton = Skeleton::new(&Topology::mesh(&[6, 6]), &[1, 1], &universe);
    // Warmup: sizes this thread's recycled bit rows.
    let sparse = skeleton.fill(&xy);
    let mut dense_edges = 0;
    let n = allocs_during(|| dense_edges = skeleton.fill(&all).edge_count());
    assert!(dense_edges > sparse.edge_count());
    assert_eq!(n, 2, "a fill returns `row_start` and `col`, nothing else");
}

#[test]
fn an_enumeration_allocates_per_free_model_only() {
    // Set-up (cycles, universe, skeleton, relation, the result list as
    // it doubles) is a fixed number of allocations (45); the 4 096 verdicts
    // add none, the 176 free models one index vector each. The per-model
    // build this replaced made 35 per *checked* model.
    let mut free = 0;
    let n = allocs_during(|| free = deadlock_free_combinations(3, 3).len() as u64);
    assert_eq!(free, 176);
    assert!((free..=free + 64).contains(&n), "{n} allocations");
}

#[test]
fn turn_commits_allocate_nothing() {
    // Eight turns keep the `TurnSet` inside one B-tree leaf, so what is
    // counted is the commit: allow rows edited in place, a verdict off
    // the skeleton.
    let (universe, _, all) = relations();
    let turns: Vec<Turn> = all.iter().filter(|t| t.from.dim != t.to.dim).collect();
    assert_eq!(turns.len(), 8);
    let base: TurnSet = turns.iter().copied().collect();
    let mut v = IncrementalVerifier::new(Topology::mesh(&[6, 6]), vec![1, 1], universe, base);
    let mut rng = ebda_obs::Rng64::new(7);
    let mut toggle = |v: &mut IncrementalVerifier| {
        let t = turns[rng.gen_index(turns.len())];
        if v.turns().contains(t) {
            v.apply_remove_turn(t)
        } else {
            v.apply_add_turn(t)
        }
    };
    // Warm-up: the first searches size this thread's scratch.
    for _ in 0..24 {
        toggle(&mut v);
    }
    let (mut free, mut cyclic) = (0, 0);
    let n = allocs_during(|| {
        for _ in 0..1000 {
            *(if toggle(&mut v) {
                &mut free
            } else {
                &mut cyclic
            }) += 1;
        }
    });
    assert!(free >= 100 && cyclic >= 100, "{free} free, {cyclic} cyclic");
    assert_eq!(n, 0, "1000 commits allocated {n} times");
}

#[test]
fn queries_allocate_nothing() {
    // Both kinds of query, on a cyclic base — one ring of turns, so
    // that dropping a turn of it breaks the kept cycle and the verdict
    // takes a search — and on an acyclic one (additions search,
    // removals are free).
    let (universe, xy, all) = relations();
    let turns: Vec<Turn> = all.iter().collect();
    let ring: TurnSet = [(0, 3), (3, 1), (1, 2), (2, 0)]
        .map(|(a, b)| Turn::new(universe[a], universe[b]))
        .into_iter()
        .collect();
    let topo = Topology::mesh(&[6, 6]);
    let mut rng = ebda_obs::Rng64::new(7);
    let (mut free, mut cyclic) = (0, 0);
    for base in [ring, xy] {
        let v = IncrementalVerifier::new(topo.clone(), vec![1, 1], universe.clone(), base);
        let mut query = || {
            let t = turns[rng.gen_index(turns.len())];
            if rng.gen_index(2) == 0 {
                v.query_remove_turn(t)
            } else {
                v.query_add_turn(t)
            }
        };
        // Warm-up: the first searches size this thread's scratch.
        for _ in 0..24 {
            query();
        }
        let n = allocs_during(|| {
            for _ in 0..1000 {
                *(if query() { &mut free } else { &mut cyclic }) += 1;
            }
        });
        assert_eq!(n, 0, "1000 queries allocated {n} times");
    }
    assert!(free >= 100 && cyclic >= 100, "{free} free, {cyclic} cyclic");
}
