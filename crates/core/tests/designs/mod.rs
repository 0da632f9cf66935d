//! The catalog list the design-wide suites iterate, and the one design
//! only tests build (`mod designs;` here, by path in the suites of
//! `ebda-cdg`, `ebda-oracle`, `ebda-routing` and the facade, and under
//! `#[cfg(test)]` in this crate's unit tests).

use ebda_core::catalog::*;
use ebda_core::{Channel, Dimension, Direction, Partition, PartitionSeq};

/// Every catalog design with its paper name, plus planar-adaptive 3D.
pub fn all_designs() -> Vec<(&'static str, PartitionSeq)> {
    vec![
        ("P1 (XY)", p1_xy()),
        ("P2 (partially adaptive)", p2_partially_adaptive()),
        ("P3 (west-first)", p3_west_first()),
        ("P4 (negative-first)", p4_negative_first()),
        ("P5 (west-first + VCs)", p5_west_first_vcs()),
        ("north-last (Fig. 5)", north_last()),
        ("Fig. 7a (2D naive)", fig7a()),
        ("Fig. 7b (DyXY)", fig7b_dyxy()),
        ("Fig. 7c", fig7c()),
        ("Fig. 9a (3D naive)", fig9a()),
        ("Fig. 9b", fig9b()),
        ("Fig. 9c", fig9c()),
        ("Odd-Even", odd_even()),
        ("Hamiltonian", hamiltonian()),
        ("Table 5 (partial 3D)", table5_partial3d()),
        ("planar-adaptive 3D", planar_adaptive(3)),
    ]
}

/// Planar-adaptive routing (Chien & Kim, the paper's reference 2) as an
/// EbDa partition sequence: the packet resolves dimensions through a chain
/// of adaptive 2D planes `(d0,d1), (d1,d2), …`; each plane is the Fig. 7b
/// double-channel pattern, and the plane order is the Theorem 3 partition
/// order. For `n = 2` this is exactly [`fig7b_dyxy`].
///
/// Channel budget: 1 VC on the first dimension, 2 on the last, 3 on the
/// middle dimensions — `6(n-1)` channels for `n ≥ 2`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn planar_adaptive(n: usize) -> PartitionSeq {
    assert!(n >= 2, "planar-adaptive needs at least two dimensions");
    let mut partitions = Vec::with_capacity(2 * (n - 1));
    for i in 0..(n - 1) {
        let first = Dimension::new(i as u8);
        let second = Dimension::new((i + 1) as u8);
        // Middle dimensions already used VCs 1/2 as a second dimension;
        // their first-dimension role uses VC 3.
        let first_vc = if i == 0 { 1 } else { 3 };
        let mut pa = Partition::new();
        pa.push(Channel::with_vc(first, Direction::Plus, first_vc))
            .expect("fresh partition");
        pa.push_star(Channel::with_vc(second, Direction::Plus, 1))
            .expect("disjoint channels");
        let mut pb = Partition::new();
        pb.push(Channel::with_vc(first, Direction::Minus, first_vc))
            .expect("fresh partition");
        pb.push_star(Channel::with_vc(second, Direction::Plus, 2))
            .expect("disjoint channels");
        partitions.push(pa);
        partitions.push(pb);
    }
    let seq = PartitionSeq::from_partitions(partitions);
    seq.validate().expect("planar-adaptive design is valid");
    seq
}
