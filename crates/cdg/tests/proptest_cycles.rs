//! Randomized tests of the cycle-detection kernel that ships
//! ([`ebda_cdg::csr`]) and the CDG construction. Every graph property is
//! asserted on the CSR kernel's answer, and that answer is compared with
//! the adjacency-list reference in `cycle_ref/`.
//!
//! Driven by a seeded [`Rng64`] instead of a property-testing framework
//! so the suite is fully deterministic and dependency-free; every assert
//! message carries the case index for replay.

mod cycle_ref;

use cycle_ref::csr_of;
use ebda_cdg::csr::find_cycle;
use ebda_cdg::{Skeleton, Topology};
use ebda_obs::Rng64;

/// A random directed graph as an adjacency list with up to `max_nodes`
/// nodes and `max_edges` edge draws (duplicates discarded). Rows ascend,
/// the layout [`ebda_cdg::Csr`] requires, so both kernels walk the same
/// edge order.
fn rand_graph(rng: &mut Rng64, max_nodes: usize, max_edges: usize) -> Vec<Vec<u32>> {
    let n = 1 + rng.gen_index(max_nodes - 1);
    let mut g = vec![Vec::new(); n];
    for _ in 0..rng.gen_index(max_edges) {
        let a = rng.gen_index(n);
        let b = rng.gen_index(n) as u32;
        if !g[a].contains(&b) {
            g[a].push(b);
        }
    }
    g.iter_mut().for_each(|row| row.sort_unstable());
    g
}

/// Any witness returned by find_cycle is a genuine closed walk, and the
/// same one the reference reports.
#[test]
fn witness_is_a_real_cycle() {
    let mut rng = Rng64::new(0xCD62);
    for case in 0..128 {
        let g = rand_graph(&mut rng, 40, 120);
        let witness = find_cycle(&csr_of(&g));
        assert_eq!(witness, cycle_ref::find_cycle(&g), "case {case}");
        if let Some(cycle) = witness {
            assert!(!cycle.is_empty(), "case {case}");
            for w in cycle.windows(2) {
                assert!(g[w[0] as usize].contains(&w[1]), "case {case}");
            }
            let last = *cycle.last().unwrap();
            assert!(g[last as usize].contains(&cycle[0]), "case {case}");
        }
    }
}

/// Edges respecting a random topological order never form a cycle.
#[test]
fn dag_by_construction_is_acyclic() {
    let mut rng = Rng64::new(0xCD64);
    for case in 0..128 {
        let n = 2 + rng.gen_index(38);
        let mut g = vec![Vec::new(); n];
        for _ in 0..rng.gen_index(100) {
            let a = rng.gen_index(n);
            let b = rng.gen_index(n);
            if a < b {
                // Forward edges only: a DAG by construction.
                let e = b as u32;
                if !g[a].contains(&e) {
                    g[a].push(e);
                }
            }
        }
        g.iter_mut().for_each(|row| row.sort_unstable());
        assert!(find_cycle(&csr_of(&g)).is_none(), "case {case}");
        assert!(cycle_ref::find_cycle(&g).is_none(), "case {case}");
    }
}

/// CDG channel enumeration: node count equals links x VCs, and every
/// channel's endpoints are adjacent in the topology.
#[test]
fn cdg_channel_enumeration_is_consistent() {
    let mut rng = Rng64::new(0xCD65);
    for case in 0..48 {
        let rx = 2 + rng.gen_index(3);
        let ry = 2 + rng.gen_index(3);
        let vx = 1 + rng.gen_index(2) as u8;
        let vy = 1 + rng.gen_index(2) as u8;
        let topo = Topology::mesh(&[rx, ry]);
        let chans = Skeleton::new(&topo, &[vx, vy], &[]).channels().to_vec();
        let expected: usize = topo
            .links()
            .iter()
            .map(|(_, _, dim, _)| match dim.index() {
                0 => vx as usize,
                _ => vy as usize,
            })
            .sum();
        assert_eq!(chans.len(), expected, "case {case} ({rx}x{ry})");
        for c in chans {
            assert_eq!(
                topo.neighbor(c.from, c.dim, c.dir),
                Some(c.to),
                "case {case}"
            );
        }
    }
}
