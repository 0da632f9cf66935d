//! Dally's verification criterion, applied to EbDa designs on concrete
//! topologies.
//!
//! Dally & Seitz (1987): a wormhole network is deadlock-free iff its channel
//! dependency graph is acyclic. EbDa *constructs* designs whose CDGs are
//! acyclic; this module closes the loop by checking that property
//! explicitly — the cross-validation the paper's theorems promise.

use crate::graph::{Cdg, ConcreteChannel};
use crate::topology::Topology;
use ebda_core::{extract_turns, Channel, PartitionSeq, Result, TurnSet};
use std::fmt;

/// The outcome of a Dally verification run.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Number of concrete channels (CDG nodes).
    pub channels: usize,
    /// Number of dependency edges.
    pub dependencies: usize,
    /// A witness cycle if the CDG is cyclic; `None` means deadlock-free.
    pub cycle: Option<Vec<ConcreteChannel>>,
}

impl VerificationReport {
    /// Dally's verdict read off an already-built graph.
    pub fn of(cdg: &Cdg) -> VerificationReport {
        VerificationReport {
            channels: cdg.node_count(),
            dependencies: cdg.edge_count(),
            cycle: cdg.find_cycle(),
        }
    }

    /// Returns `true` when the design passed (acyclic CDG).
    pub fn is_deadlock_free(&self) -> bool {
        self.cycle.is_none()
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cycle {
            None => write!(
                f,
                "deadlock-free: {} channels, {} dependencies, acyclic CDG",
                self.channels, self.dependencies
            ),
            Some(cycle) => {
                write!(f, "DEADLOCK POSSIBLE: cycle of {} channels: ", cycle.len())?;
                for (i, c) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
        }
    }
}

/// Verifies a class-level turn set on a topology with Dally's criterion.
///
/// `universe` lists the design's channel classes; `vcs[d]` is the number of
/// virtual channels instantiated along dimension `d` (it must cover every
/// VC number the universe mentions).
pub fn verify_turn_set(
    topo: &Topology,
    vcs: &[u8],
    universe: &[Channel],
    turns: &TurnSet,
) -> VerificationReport {
    VerificationReport::of(&Cdg::from_turn_set(topo, vcs, universe, turns))
}

/// The CDG's deterministic channel ordering when it is acyclic — Dally's
/// positive evidence in exportable form (see [`Cdg::topological_order`]).
/// Returns `None` exactly when [`verify_turn_set`] reports a cycle.
pub fn channel_ordering(
    topo: &Topology,
    vcs: &[u8],
    universe: &[Channel],
    turns: &TurnSet,
) -> Option<Vec<ConcreteChannel>> {
    Cdg::from_turn_set(topo, vcs, universe, turns).topological_order()
}

/// Extracts the turns of an EbDa design (Theorems 1–3) and verifies the
/// result on a concrete topology.
///
/// The VC budget is inferred from the design (the maximum VC number used
/// per dimension).
///
/// ```
/// use ebda_cdg::{dally::verify_design, Topology};
/// use ebda_core::catalog;
/// let report = verify_design(&Topology::mesh(&[4, 4]), &catalog::fig7b_dyxy()).unwrap();
/// assert!(report.is_deadlock_free());
/// ```
///
/// # Errors
///
/// Returns an error when the design itself is invalid (Theorem 1 or
/// disjointness violations).
pub fn verify_design(topo: &Topology, seq: &PartitionSeq) -> Result<VerificationReport> {
    let extraction = extract_turns(seq)?;
    let universe = design_universe(seq);
    let vcs = infer_vcs(&universe, topo.dims());
    Ok(verify_turn_set(
        topo,
        &vcs,
        &universe,
        extraction.turn_set(),
    ))
}

/// The flat channel-class universe of a design.
pub fn design_universe(seq: &PartitionSeq) -> Vec<Channel> {
    seq.channels()
}

/// Infers the per-dimension VC budget from a channel universe (maximum VC
/// number mentioned per dimension, at least 1).
pub fn infer_vcs(universe: &[Channel], dims: usize) -> Vec<u8> {
    let mut vcs = vec![1u8; dims];
    for c in universe {
        if c.dim.index() < dims {
            vcs[c.dim.index()] = vcs[c.dim.index()].max(c.vc);
        }
    }
    vcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_core::catalog;

    #[test]
    fn channel_ordering_certifies_acyclic_cdgs() {
        // XY routing on a mesh: an ordering exists and every dependency
        // edge ascends in it.
        let topo = Topology::mesh(&[3, 3]);
        let seq = catalog::p1_xy();
        let extraction = extract_turns(&seq).unwrap();
        let universe = design_universe(&seq);
        let vcs = infer_vcs(&universe, topo.dims());
        let order = channel_ordering(&topo, &vcs, &universe, extraction.turn_set())
            .expect("XY routing has an acyclic CDG");
        let cdg = Cdg::from_turn_set(&topo, &vcs, &universe, extraction.turn_set());
        assert_eq!(order.len(), cdg.node_count());
        let rank: std::collections::HashMap<ConcreteChannel, usize> =
            order.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        for (i, &a) in cdg.channels().iter().enumerate() {
            for &j in cdg.successors(i) {
                let b = cdg.channels()[j as usize];
                assert!(rank[&a] < rank[&b], "{a} must precede {b}");
            }
        }

        // The unrestricted relation is cyclic: no ordering exists.
        let universe = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
        let mut turns = TurnSet::new();
        for &a in &universe {
            for &b in &universe {
                if a != b {
                    turns.insert(ebda_core::Turn::new(a, b));
                }
            }
        }
        assert!(channel_ordering(&topo, &[1, 1], &universe, &turns).is_none());
    }

    #[test]
    fn negative_control_two_pair_partition_rejected() {
        let seq = PartitionSeq::parse("X+ X- Y+ Y-").unwrap();
        assert!(verify_design(&Topology::mesh(&[4, 4]), &seq).is_err());
    }

    #[test]
    fn negative_control_cyclic_turnset_detected() {
        // Hand-build the all-turns-allowed relation (valid partitions taken
        // separately, but we bypass extraction to model a broken router).
        let universe = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
        let mut turns = TurnSet::new();
        for &a in &universe {
            for &b in &universe {
                if a != b {
                    turns.insert(ebda_core::Turn::new(a, b));
                }
            }
        }
        let report = verify_turn_set(&Topology::mesh(&[4, 4]), &[1, 1], &universe, &turns);
        assert!(!report.is_deadlock_free());
        let text = report.to_string();
        assert!(text.contains("DEADLOCK"));
        // The witness must be a real cycle: consecutive links adjacent.
        let cycle = report.cycle.unwrap();
        for w in cycle.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
        assert_eq!(cycle.last().unwrap().to, cycle[0].from);
    }

    #[test]
    fn three_d_designs_verify_on_3d_meshes() {
        let topo = Topology::mesh(&[3, 3, 3]);
        for seq in [catalog::fig9b(), catalog::fig9c(), catalog::fig9a()] {
            let report = verify_design(&topo, &seq).unwrap();
            assert!(report.is_deadlock_free(), "{report}");
        }
    }

    #[test]
    fn partial_3d_design_verifies_on_partial_topology() {
        // Table 5's design on a vertically partially connected 3x3x2 mesh
        // with elevators at two positions.
        let topo = Topology::mesh(&[3, 3, 2])
            .with_partial_dim(ebda_core::Dimension::Z, [vec![0, 0], vec![2, 2]]);
        let report = verify_design(&topo, &catalog::table5_partial3d()).unwrap();
        assert!(report.is_deadlock_free(), "{report}");
    }

    #[test]
    fn dateline_design_passes_the_class_level_check_on_tori() {
        // The coordinate-restricted classes break the VC-2 ring inside the
        // channel-class graph itself, so even the conservative class-level
        // verifier accepts the dateline design — while the plain (class-
        // unrestricted) torus design is rejected.
        for radix in [vec![4usize, 4], vec![5, 3], vec![3, 3, 3]] {
            let topo = Topology::torus(&radix);
            let seq = catalog::torus_dateline(&radix.to_vec());
            let report = verify_design(&topo, &seq).unwrap();
            assert!(report.is_deadlock_free(), "{radix:?}: {report}");
            assert!(report.dependencies > 0);
        }
        // Negative control: an unrestricted single-VC dimension-order
        // design is cyclic on the torus.
        let torus = Topology::torus(&[4, 4]);
        let plain = PartitionSeq::parse("X+ X- | Y+ Y-").unwrap();
        assert!(!verify_design(&torus, &plain).unwrap().is_deadlock_free());
    }

    #[test]
    fn vc_inference() {
        let u = design_universe(&catalog::fig9b());
        assert_eq!(infer_vcs(&u, 3), vec![2, 2, 4]);
    }

    #[test]
    fn algorithm1_outputs_verify_for_many_vc_mixes() {
        for x in 1..=3u8 {
            for y in 1..=3u8 {
                let seq = ebda_core::algorithm1::partition_network(&[x, y]).unwrap();
                let report = verify_design(&Topology::mesh(&[4, 4]), &seq).unwrap();
                assert!(
                    report.is_deadlock_free(),
                    "vcs ({x},{y}) produced a cyclic design: {report}"
                );
            }
        }
    }

    #[test]
    fn exceptional_partitionings_verify() {
        for seq in ebda_core::exceptional::exceptional_partitionings(2).unwrap() {
            let report = verify_design(&Topology::mesh(&[5, 5]), &seq).unwrap();
            assert!(report.is_deadlock_free(), "{seq}: {report}");
        }
        for seq in ebda_core::exceptional::exceptional_partitionings(3).unwrap() {
            let report = verify_design(&Topology::mesh(&[3, 3, 3]), &seq).unwrap();
            assert!(report.is_deadlock_free(), "{seq}: {report}");
        }
    }
}
