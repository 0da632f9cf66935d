//! Routing-relation-level CDG verification.
//!
//! The class-level turn-set check in `ebda-cdg` is a safe over-
//! approximation: it adds a dependency wherever the turn set *could* allow
//! a transition, regardless of destinations. Some correct designs — most
//! importantly dateline virtual channels on tori — are rejected by that
//! check because a class-level cycle exists that no packet can actually
//! traverse. This module builds the *exact* channel dependency graph of a
//! [`RoutingRelation`]: a dependency `a → b` is added only if some
//! (source, destination, routing-state) combination makes the relation
//! continue from concrete channel `a` onto concrete channel `b`.

use crate::relation::{RoutingRelation, INJECT};
use ebda_cdg::graph::{Cdg, ConcreteChannel};
use ebda_cdg::topology::Topology;
use std::collections::HashSet;

/// A concrete channel some packet takes, after the one it held before
/// (`None` for a packet's first hop).
pub(crate) type Hop = (Option<ConcreteChannel>, ConcreteChannel);

/// Every [`Hop`] `relation` can take on `topo`: the reachable `(node,
/// state, incoming channel)` space of every (source, destination) pair,
/// walked once. `order` lists the hops as first seen — the order
/// [`crate::certify_relation`] lifts them to channel classes in.
pub(crate) struct Hops {
    pub(crate) order: Vec<Hop>,
    seen: HashSet<Hop>,
}

impl Hops {
    /// Exhaustive in the topology size — intended for verification-scale
    /// networks (hundreds of nodes), like the rest of the CDG machinery.
    pub(crate) fn of(topo: &Topology, relation: &dyn RoutingRelation) -> Hops {
        let mut hops = Hops {
            order: Vec::new(),
            seen: HashSet::new(),
        };
        for src in topo.nodes() {
            for dst in topo.nodes() {
                if src == dst {
                    continue;
                }
                // Depth-first over (node, state, incoming channel).
                let mut stack = vec![(src, INJECT, None::<ConcreteChannel>)];
                let mut visited = HashSet::new();
                while let Some((node, state, via)) = stack.pop() {
                    if node == dst {
                        continue;
                    }
                    for ch in relation.route(topo, node, state, src, dst) {
                        let Some(next) = topo.neighbor(node, ch.port.dim, ch.port.dir) else {
                            continue;
                        };
                        let out = ConcreteChannel {
                            from: node,
                            to: next,
                            dim: ch.port.dim,
                            dir: ch.port.dir,
                            vc: ch.port.vc,
                        };
                        if hops.seen.insert((via, out)) {
                            hops.order.push((via, out));
                        }
                        if visited.insert((next, ch.state, out)) {
                            stack.push((next, ch.state, Some(out)));
                        }
                    }
                }
            }
        }
        hops
    }

    /// The exact CDG: a dependency `a → b` wherever `b` was taken after
    /// `a`.
    pub(crate) fn cdg(&self, topo: &Topology, relation: &dyn RoutingRelation) -> Cdg {
        let vcs = relation.vcs(topo);
        Cdg::from_rule(topo, &vcs, |a, b| self.seen.contains(&(Some(a), b)))
    }
}

/// Builds the exact CDG of a routing relation on a topology by exploring
/// every (source, destination) pair's reachable `(node, state)` space and
/// recording the concrete channel pairs taken consecutively.
pub fn routing_cdg(topo: &Topology, relation: &dyn RoutingRelation) -> Cdg {
    Hops::of(topo, relation).cdg(topo, relation)
}

/// Verifies a routing relation exactly: builds [`routing_cdg`] and checks
/// it for cycles. Returns the witness cycle if one exists.
pub fn verify_relation(
    topo: &Topology,
    relation: &dyn RoutingRelation,
) -> Result<(), Vec<ConcreteChannel>> {
    match routing_cdg(topo, relation).find_cycle() {
        None => Ok(()),
        Some(cycle) => Err(cycle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::{DimensionOrder, ElevatorFirst, OddEven, TorusDateline};
    use crate::turn_based::TurnRouting;
    use ebda_core::catalog;

    #[test]
    fn xy_relation_is_exactly_acyclic() {
        let topo = Topology::mesh(&[4, 4]);
        assert!(verify_relation(&topo, &DimensionOrder::xy()).is_ok());
    }

    #[test]
    fn ebda_relations_acyclic_at_relation_level() {
        let topo = Topology::mesh(&[4, 4]);
        for (name, seq) in [
            ("wf", catalog::p3_west_first()),
            ("dyxy", catalog::fig7b_dyxy()),
            ("oe", catalog::odd_even()),
        ] {
            let r = TurnRouting::from_design(name, &seq).unwrap();
            assert!(verify_relation(&topo, &r).is_ok(), "{name} has a cycle");
        }
    }

    #[test]
    fn odd_even_classic_is_exactly_acyclic() {
        let topo = Topology::mesh(&[5, 5]);
        assert!(verify_relation(&topo, &OddEven::new()).is_ok());
    }

    #[test]
    fn elevator_first_is_exactly_acyclic() {
        let topo = Topology::mesh(&[3, 3, 2])
            .with_partial_dim(ebda_core::Dimension::Z, [vec![0, 0], vec![2, 2]]);
        let r = ElevatorFirst::new([vec![0, 0], vec![2, 2]]);
        assert!(verify_relation(&topo, &r).is_ok());
    }

    #[test]
    fn naive_torus_routing_has_a_real_cycle() {
        // Shortest-way dimension-order routing on a torus without
        // datelines: the wrap rings close dependency cycles even at the
        // exact relation level.
        let topo = Topology::torus(&[4, 4]);
        let err = verify_relation(&topo, &TorusDateline::without_dateline(2)).unwrap_err();
        assert!(err.len() >= 4, "ring cycles span the whole ring");
    }

    #[test]
    fn mesh_restricted_xy_on_torus_is_acyclic() {
        // Classic XY never uses the wrap links (mesh offsets), so the
        // exact CDG on a torus stays acyclic — the wraps sit idle.
        let topo = Topology::torus(&[4, 4]);
        assert!(verify_relation(&topo, &DimensionOrder::xy()).is_ok());
    }

    #[test]
    fn dateline_torus_routing_is_exactly_acyclic() {
        // The class-level check rejects dateline designs (the VC-2 ring is
        // a class-level cycle no packet traverses fully); the exact check
        // accepts them — the reason this module exists.
        let topo = Topology::torus(&[4, 4]);
        let r = TorusDateline::new(2);
        assert!(verify_relation(&topo, &r).is_ok());
    }
}
