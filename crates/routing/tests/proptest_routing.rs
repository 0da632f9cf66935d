//! Randomized tests of the turn-based routing bridge: for random valid
//! EbDa designs, the derived relation must deliver, stay minimal on full
//! meshes, and never take a turn outside its turn set. The 3D designs
//! are checked for delivery one by one.
//!
//! Driven by a seeded [`Rng64`] instead of a property-testing framework
//! so the suite is fully deterministic and dependency-free; every assert
//! message carries the case index for replay.

use ebda_core::{catalog, parse_channels, Channel, Partition, PartitionSeq};
use ebda_obs::Rng64;
use ebda_routing::{
    find_delivery_failure, verify_relation, RoutingRelation, Topology, TurnRouting, INJECT,
};

#[path = "../../core/tests/designs/mod.rs"]
#[allow(dead_code)]
mod designs;

#[test]
fn three_d_designs_deliver() {
    let topo = Topology::mesh(&[3, 3, 3]);
    for (name, seq) in [
        ("fig9b", catalog::fig9b()),
        ("fig9c", catalog::fig9c()),
        ("planar-adaptive", designs::planar_adaptive(3)),
    ] {
        let r = TurnRouting::from_design(name, &seq).unwrap();
        assert_eq!(
            find_delivery_failure(&r, &topo, 30),
            None,
            "{name} failed to deliver"
        );
    }
}

/// Builds a random two-partition 2D design over the 8-channel universe.
fn build(mask_a: u8, mask_b: u8) -> Option<PartitionSeq> {
    let universe: Vec<Channel> = parse_channels("X1+ X1- X2+ X2- Y1+ Y1- Y2+ Y2-").unwrap();
    let pick = |mask: u8| -> Vec<Channel> {
        universe
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &c)| c)
            .collect()
    };
    let a = pick(mask_a & !mask_b);
    let b = pick(mask_b & !mask_a);
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let seq = PartitionSeq::from_partitions(vec![
        Partition::from_channels(a).ok()?,
        Partition::from_channels(b).ok()?,
    ]);
    seq.validate().ok()?;
    Some(seq)
}

/// Draws mask pairs until one builds a valid design.
fn random_design(rng: &mut Rng64) -> PartitionSeq {
    loop {
        let mask_a = 1 + rng.gen_index(254) as u8;
        let mask_b = 1 + rng.gen_index(254) as u8;
        if let Some(seq) = build(mask_a, mask_b) {
            return seq;
        }
    }
}

/// A design can route all pairs only if each direction is present somewhere.
fn covers_all_directions(seq: &PartitionSeq) -> bool {
    use ebda_core::Direction::*;
    let chans: Vec<Channel> = seq
        .partitions()
        .iter()
        .flat_map(|p| p.channels().iter().copied())
        .collect();
    [(0, Plus), (0, Minus), (1, Plus), (1, Minus)]
        .iter()
        .all(|&(d, dir)| chans.iter().any(|c| c.dim.index() == d && c.dir == dir))
}

/// Every random valid design that covers all four directions delivers
/// everywhere on a mesh, and its exact relation-level CDG is acyclic.
#[test]
fn random_designs_deliver_and_stay_acyclic() {
    let mut rng = Rng64::new(0xF061);
    for case in 0..64 {
        let seq = random_design(&mut rng);
        let relation = TurnRouting::from_design("prop", &seq).unwrap();
        let topo = Topology::mesh(&[4, 4]);
        if covers_all_directions(&seq) {
            assert_eq!(
                find_delivery_failure(&relation, &topo, 32),
                None,
                "case {case}: design {seq} failed delivery"
            );
        }
        assert!(
            verify_relation(&topo, &relation).is_ok(),
            "case {case}: design {seq} produced a cyclic exact CDG"
        );
    }
}

/// Paths are always minimal on full meshes (the product-graph distance
/// equals the Manhattan distance whenever the pair is deliverable).
#[test]
fn deliverable_pairs_route_minimally() {
    let mut rng = Rng64::new(0xF062);
    for case in 0..64 {
        let seq = random_design(&mut rng);
        let s = rng.gen_index(16);
        let d = rng.gen_index(16);
        if s == d {
            continue;
        }
        let relation = TurnRouting::from_design("prop", &seq).unwrap();
        let topo = Topology::mesh(&[4, 4]);
        if let Some(dist) = relation.legal_distance(&topo, s, INJECT, d) {
            assert_eq!(
                u64::from(dist),
                topo.distance(s, d),
                "case {case}: design {seq}, {s}->{d}"
            );
        }
    }
}

/// The relation only ever emits ports matching a channel of its own
/// universe that exists at the current node.
#[test]
fn emitted_ports_are_in_universe() {
    let mut rng = Rng64::new(0xF063);
    for case in 0..64 {
        let seq = random_design(&mut rng);
        let s = rng.gen_index(16);
        let d = rng.gen_index(16);
        if s == d {
            continue;
        }
        let relation = TurnRouting::from_design("prop", &seq).unwrap();
        let topo = Topology::mesh(&[4, 4]);
        let coords = topo.coords(s);
        for ch in relation.route(&topo, s, INJECT, s, d) {
            let matching = relation.universe().iter().any(|c| {
                c.dim == ch.port.dim
                    && c.dir == ch.port.dir
                    && c.vc == ch.port.vc
                    && c.class.contains(&coords)
            });
            assert!(
                matching,
                "case {case}: port {} not in universe at {coords:?}",
                ch.port
            );
        }
    }
}
