//! # ebda-routing — routing relations for the EbDa reproduction
//!
//! Two families of [`RoutingRelation`] implementations:
//!
//! * [`TurnRouting`] — the generic bridge from EbDa theory to a router: any
//!   partition sequence (or raw turn set) becomes a deadlock-free,
//!   dead-end-free, maximally adaptive minimal routing via shortest-path
//!   search over (node, channel-class) states. This is "Section 5.4" of the
//!   paper as code.
//! * [`classic`] — hand-written published algorithms (XY/YX/XYZ,
//!   West-First, North-Last, Negative-First, Odd-Even, Elevator-First, a
//!   Duato-style adaptive+escape baseline) used to cross-check the
//!   EbDa-derived relations and as simulator baselines.
//!
//! ```
//! use ebda_routing::{walk_first_choice, TurnRouting, Topology};
//! use ebda_core::catalog;
//!
//! let topo = Topology::mesh(&[4, 4]);
//! let west_first = TurnRouting::from_design("wf", &catalog::p3_west_first())?;
//! let path = walk_first_choice(&west_first, &topo, 0, 15, 10).unwrap();
//! assert_eq!(path.len(), 7); // 6 hops on a minimal path
//! # Ok::<(), ebda_core::EbdaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify_relation;
pub mod classic;
pub mod multicast;
pub(crate) mod relation;
pub(crate) mod turn_based;
pub(crate) mod verify;

pub use ebda_cdg::topology::{NodeId, Topology};
pub use relation::{
    bind, find_delivery_failure, walk_first_choice, BoundRelation, PortVc, RouteChoice, RouteState,
    RoutingRelation, INJECT,
};
pub use turn_based::TurnRouting;
pub use verify::{routing_cdg, verify_relation};

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_cdg::LinkTable;
    use ebda_core::catalog;
    use std::collections::{HashSet, VecDeque};

    /// Every hop-pair a classic relation can produce must be allowed by the
    /// corresponding EbDa-extracted turn set — the Section 6 cross-check.
    fn classic_within_ebda(
        classic: &dyn RoutingRelation,
        seq: &ebda_core::PartitionSeq,
        topo: &Topology,
    ) -> std::result::Result<(), String> {
        let extraction = ebda_core::extract_turns(seq).unwrap();
        let turns = extraction.turn_set();
        let universe = seq.channels();
        let links = LinkTable::new(topo, &universe);
        for src in topo.nodes() {
            for dst in topo.nodes() {
                if src == dst {
                    continue;
                }
                // BFS over (node, state), remembering the previous hop.
                let mut queue = VecDeque::new();
                let mut seen = HashSet::new();
                queue.push_back((src, INJECT, None::<(PortVc, NodeId)>));
                while let Some((node, state, last)) = queue.pop_front() {
                    for ch in classic.route(topo, node, state, src, dst) {
                        if let Some((prev_port, prev_node)) = last {
                            let pa = class_at(&universe, &links, prev_node, prev_port);
                            let pb = class_at(&universe, &links, node, ch.port);
                            let (Some(a), Some(b)) = (pa, pb) else {
                                return Err("hop outside the design universe".into());
                            };
                            if !turns.allows(a, b) {
                                return Err(format!(
                                    "classic {} takes turn {a} -> {b} not allowed by {seq}",
                                    classic.name()
                                ));
                            }
                        }
                        let next = topo.neighbor(node, ch.port.dim, ch.port.dir).unwrap();
                        if seen.insert((next, ch.state, ch.port)) {
                            queue.push_back((next, ch.state, Some((ch.port, node))));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn class_at(
        universe: &[ebda_core::Channel],
        links: &LinkTable,
        node: NodeId,
        port: PortVc,
    ) -> Option<ebda_core::Channel> {
        links
            .classes(node, port.dim, port.dir)
            .map(|c| universe[c])
            .find(|c| c.vc == port.vc)
    }

    #[test]
    fn classics_stay_within_their_ebda_partitionings() {
        let topo = Topology::mesh(&[4, 4]);
        let cases: Vec<(Box<dyn RoutingRelation>, ebda_core::PartitionSeq)> = vec![
            (
                Box::new(classic::WestFirst::new()),
                catalog::p3_west_first(),
            ),
            (Box::new(classic::NorthLast::new()), catalog::north_last()),
            (
                Box::new(classic::NegativeFirst::new(2)),
                catalog::p4_negative_first(),
            ),
            (Box::new(classic::DimensionOrder::xy()), catalog::p1_xy()),
        ];
        for (relation, seq) in &cases {
            classic_within_ebda(relation.as_ref(), seq, &topo).unwrap();
        }
    }

    #[test]
    fn odd_even_is_within_its_partitioning() {
        let topo = Topology::mesh(&[5, 5]);
        classic_within_ebda(&classic::OddEven::new(), &catalog::odd_even(), &topo).unwrap();
    }

    #[test]
    fn rogue_routing_fails_the_cross_check() {
        // YX order violates west-first's prohibited NW/SW turns, so the
        // checker must reject it — proof the cross-check has teeth.
        let topo = Topology::mesh(&[3, 3]);
        let yx = classic::DimensionOrder::yx();
        let err = classic_within_ebda(&yx, &catalog::p3_west_first(), &topo).unwrap_err();
        assert!(err.contains("not allowed"), "unexpected error: {err}");
    }

    #[test]
    fn ebda_relations_offer_at_least_the_classic_choices() {
        // The EbDa-derived west-first must offer every hop the classic
        // west-first offers at injection.
        let topo = Topology::mesh(&[4, 4]);
        let ebda = TurnRouting::from_design("wf", &catalog::p3_west_first()).unwrap();
        let classic = classic::WestFirst::new();
        for src in topo.nodes() {
            for dst in topo.nodes() {
                if src == dst {
                    continue;
                }
                let c: HashSet<PortVc> = classic
                    .route(&topo, src, INJECT, src, dst)
                    .into_iter()
                    .map(|r| r.port)
                    .collect();
                let e: HashSet<PortVc> = ebda
                    .route(&topo, src, INJECT, src, dst)
                    .into_iter()
                    .map(|r| r.port)
                    .collect();
                assert!(
                    c.is_subset(&e),
                    "classic offers {c:?} but EbDa only {e:?} at {src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn turn_based_trait_object_safety() {
        let r: Box<dyn RoutingRelation> =
            Box::new(TurnRouting::from_design("xy", &catalog::p1_xy()).unwrap());
        assert_eq!(r.name(), "xy");
    }
}
