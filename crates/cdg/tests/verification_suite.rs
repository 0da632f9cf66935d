//! Systematic verification sweeps: every catalog design across mesh sizes
//! and shapes — deadlock freedom must be size-independent (the property
//! that makes small-instance checking meaningful).

use ebda_cdg::dally::design_universe;
use ebda_cdg::{verify_design, Cdg, ConcreteChannel, Topology};
use ebda_core::catalog;

#[path = "../../core/tests/designs/mod.rs"]
mod designs;

#[test]
fn every_catalog_design_is_deadlock_free_on_meshes() {
    for (name, seq) in designs::all_designs() {
        let dims = design_universe(&seq)
            .iter()
            .map(|c| c.dim.index() + 1)
            .max()
            .unwrap();
        let radix = vec![4usize; dims];
        let topo = Topology::mesh(&radix);
        let report = verify_design(&topo, &seq).unwrap();
        assert!(
            report.is_deadlock_free(),
            "{name} must be deadlock-free on a mesh: {report}"
        );
        assert!(report.dependencies > 0, "{name} produced an empty CDG");
    }
}

#[test]
fn two_d_designs_are_stable_across_sizes() {
    let designs = [
        ("P1", catalog::p1_xy()),
        ("P2", catalog::p2_partially_adaptive()),
        ("P3", catalog::p3_west_first()),
        ("P4", catalog::p4_negative_first()),
        ("north-last", catalog::north_last()),
        ("fig7b", catalog::fig7b_dyxy()),
        ("fig7c", catalog::fig7c()),
        ("odd-even", catalog::odd_even()),
        ("hamiltonian", catalog::hamiltonian()),
    ];
    for radix in 3..=8usize {
        let topo = Topology::mesh(&[radix, radix]);
        for (name, seq) in &designs {
            let report = verify_design(&topo, seq).unwrap();
            assert!(
                report.is_deadlock_free(),
                "{name} cyclic on {radix}x{radix}: {report}"
            );
        }
    }
}

#[test]
fn rectangular_meshes_behave_like_square_ones() {
    for shape in [[3usize, 7], [7, 3], [2, 9], [5, 4]] {
        let topo = Topology::mesh(&shape);
        for (name, seq) in [
            ("west-first", catalog::p3_west_first()),
            ("odd-even", catalog::odd_even()),
            ("dyxy", catalog::fig7b_dyxy()),
        ] {
            let report = verify_design(&topo, &seq).unwrap();
            assert!(
                report.is_deadlock_free(),
                "{name} cyclic on {shape:?}: {report}"
            );
        }
    }
}

#[test]
fn three_d_designs_on_irregular_box_shapes() {
    for shape in [[2usize, 3, 4], [4, 2, 3], [3, 3, 2]] {
        let topo = Topology::mesh(&shape);
        for (name, seq) in [
            ("fig9b", catalog::fig9b()),
            ("fig9c", catalog::fig9c()),
            ("planar-adaptive", designs::planar_adaptive(3)),
            ("table5", catalog::table5_partial3d()),
        ] {
            let report = verify_design(&topo, &seq).unwrap();
            assert!(
                report.is_deadlock_free(),
                "{name} cyclic on {shape:?}: {report}"
            );
        }
    }
}

#[test]
fn dependency_counts_grow_linearly_with_mesh_area() {
    // Turn-CDG dependencies of a fixed design scale with the link count,
    // sanity-checking the instantiation (no quadratic blowup, no loss).
    let seq = catalog::p3_west_first();
    let d4 = verify_design(&Topology::mesh(&[4, 4]), &seq)
        .unwrap()
        .dependencies as f64;
    let d8 = verify_design(&Topology::mesh(&[8, 8]), &seq)
        .unwrap()
        .dependencies as f64;
    let ratio = d8 / d4;
    assert!(
        (3.0..6.5).contains(&ratio),
        "8x8/4x4 dependency ratio {ratio} outside the linear-ish band"
    );
}

#[test]
fn witnesses_exist_exactly_when_cyclic() {
    use ebda_core::{parse_channels, Turn, TurnSet};

    let universe = parse_channels("X+ X- Y+ Y-").unwrap();
    let mut all = TurnSet::new();
    for &a in &universe {
        for &b in &universe {
            if a != b && a.dim != b.dim {
                all.insert(Turn::new(a, b));
            }
        }
    }
    for radix in 3..=6usize {
        let topo = Topology::mesh(&[radix, radix]);
        let cyclic = Cdg::from_turn_set(&topo, &[1, 1], &universe, &all);
        let witness = shortest_cycle(&cyclic).expect("all-turns is cyclic");
        assert_eq!(witness.len(), 4, "unit square on {radix}x{radix}");
    }
}

/// The shortest dependency cycle of a CDG, or `None` when acyclic: one
/// BFS per node over the dependency edges (O(V·E)).
fn shortest_cycle(cdg: &Cdg) -> Option<Vec<ConcreteChannel>> {
    let n = cdg.node_count();
    let mut best: Option<Vec<u32>> = None;
    for start in 0..n as u32 {
        // BFS from each successor of `start` back to `start`.
        let mut parent = vec![u32::MAX; n];
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for &s in cdg.successors(start as usize) {
            if s == start {
                return Some(vec![cdg.channels()[start as usize]]); // self-loop
            }
            if dist[s as usize] == u32::MAX {
                dist[s as usize] = 1;
                parent[s as usize] = start;
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            if let Some(b) = &best {
                if dist[v as usize] + 1 >= b.len() as u32 {
                    continue; // cannot beat the current best
                }
            }
            for &w in cdg.successors(v as usize) {
                if w == start {
                    // Reconstruct start -> ... -> v -> start.
                    let mut cycle = vec![v];
                    let mut cur = v;
                    while cur != start {
                        cur = parent[cur as usize];
                        cycle.push(cur);
                    }
                    cycle.reverse();
                    if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
                        best = Some(cycle);
                    }
                } else if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    parent[w as usize] = v;
                    queue.push_back(w);
                }
            }
        }
    }
    best.map(|idxs| {
        idxs.into_iter()
            .map(|i| cdg.channels()[i as usize])
            .collect()
    })
}
