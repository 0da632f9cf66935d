//! Duato-style fully adaptive routing with escape channels — the baseline
//! theory EbDa is contrasted with (Section 2 of the paper).

use super::{dir_of, offsets};
use crate::relation::{PortVc, RouteChoice, RouteState, RoutingRelation};
use ebda_cdg::topology::{NodeId, Topology};
use ebda_core::{Channel, Dimension, Direction};

/// Duato's fully adaptive routing: VC 1 of every dimension forms the
/// unrestricted *adaptive* class (any minimal hop, any order), VC 2 forms a
/// dimension-order *escape* subnetwork. A blocked packet can always fall
/// back to the escape channel, which is acyclic and connected — but the
/// guarantee requires an input buffer to hold flits of only one packet
/// (Duato's Assumption 3), the restriction EbDa removes. Run the simulator
/// in `BufferPolicy::SinglePacket` mode for a faithful Duato configuration.
#[derive(Debug, Clone)]
pub struct DuatoFullyAdaptive {
    universe: Vec<Channel>,
    dims: usize,
}

impl DuatoFullyAdaptive {
    /// Creates the relation for an `n`-dimensional mesh: `2n` adaptive
    /// channels (VC 1) + `2n` escape channels (VC 2).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> DuatoFullyAdaptive {
        assert!(n >= 1, "at least one dimension");
        let mut universe = Vec::with_capacity(4 * n);
        for vc in [1u8, 2] {
            for d in 0..n {
                universe.push(Channel::with_vc(
                    Dimension::new(d as u8),
                    Direction::Plus,
                    vc,
                ));
                universe.push(Channel::with_vc(
                    Dimension::new(d as u8),
                    Direction::Minus,
                    vc,
                ));
            }
        }
        DuatoFullyAdaptive { universe, dims: n }
    }
}

impl RoutingRelation for DuatoFullyAdaptive {
    fn name(&self) -> &str {
        "duato-fully-adaptive"
    }

    fn universe(&self) -> &[Channel] {
        &self.universe
    }

    fn route(
        &self,
        topo: &Topology,
        node: NodeId,
        _state: RouteState,
        _src: NodeId,
        dst: NodeId,
    ) -> Vec<RouteChoice> {
        let off = offsets(topo, node, dst);
        let mut out = Vec::new();
        // Adaptive class: every minimal hop on VC 1.
        #[allow(clippy::needless_range_loop)] // the index doubles as the dimension id
        for d in 0..self.dims {
            if off[d] != 0 {
                out.push(RouteChoice {
                    port: PortVc {
                        dim: Dimension::new(d as u8),
                        dir: dir_of(off[d]),
                        vc: 1,
                    },
                    state: 0,
                });
            }
        }
        // Escape: the dimension-order hop on VC 2 (listed last so greedy
        // selections prefer adaptive channels, as Duato intends).
        if let Some(d) = (0..self.dims).find(|&d| off[d] != 0) {
            out.push(RouteChoice {
                port: PortVc {
                    dim: Dimension::new(d as u8),
                    dir: dir_of(off[d]),
                    vc: 2,
                },
                state: 0,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{find_delivery_failure, INJECT};
    use ebda_cdg::duato::verify_escape;

    /// The escape sub-universe (VC 2 channels) for Duato verification.
    fn escape_universe(r: &DuatoFullyAdaptive) -> Vec<Channel> {
        r.universe.iter().copied().filter(|c| c.vc == 2).collect()
    }

    /// The escape turn set: dimension-order (lowest dimension first) over
    /// the VC 2 channels.
    fn escape_turns(r: &DuatoFullyAdaptive) -> ebda_core::TurnSet {
        let mut ts = ebda_core::TurnSet::new();
        for i in 0..r.dims {
            for j in (i + 1)..r.dims {
                for da in [Direction::Plus, Direction::Minus] {
                    for db in [Direction::Plus, Direction::Minus] {
                        ts.insert(ebda_core::Turn::new(
                            Channel::with_vc(Dimension::new(i as u8), da, 2),
                            Channel::with_vc(Dimension::new(j as u8), db, 2),
                        ));
                    }
                }
            }
        }
        ts
    }

    #[test]
    fn offers_all_minimal_hops_plus_escape() {
        let topo = Topology::mesh(&[5, 5]);
        let r = DuatoFullyAdaptive::new(2);
        let src = topo.node_at(&[0, 0]);
        let dst = topo.node_at(&[3, 3]);
        let choices = r.route(&topo, src, INJECT, src, dst);
        assert_eq!(choices.len(), 3); // X+ vc1, Y+ vc1, X+ vc2 (escape)
        assert_eq!(choices.last().unwrap().port.vc, 2);
    }

    #[test]
    fn escape_subnetwork_satisfies_duato_conditions() {
        let topo = Topology::mesh(&[4, 4]);
        let r = DuatoFullyAdaptive::new(2);
        let report = verify_escape(&topo, &[2, 2], &escape_universe(&r), &escape_turns(&r));
        assert!(report.is_deadlock_free(), "{report}");
    }

    #[test]
    fn full_relation_cdg_is_cyclic_without_escape_reasoning() {
        // The *whole* relation (adaptive channels included) has a cyclic
        // CDG — that is the point of Duato's theory, and why EbDa's
        // acyclic-by-construction approach is a different regime.
        let topo = Topology::mesh(&[4, 4]);
        let r = DuatoFullyAdaptive::new(2);
        let mut all_turns = ebda_core::TurnSet::new();
        for &a in r.universe() {
            for &b in r.universe() {
                if a != b && a.vc == 1 {
                    all_turns.insert(ebda_core::Turn::new(a, b));
                }
            }
        }
        all_turns.merge(escape_turns(&r));
        let report = ebda_cdg::verify_turn_set(&topo, &[2, 2], r.universe(), &all_turns);
        assert!(!report.is_deadlock_free());
    }

    #[test]
    fn delivers_everywhere() {
        let topo = Topology::mesh(&[4, 4]);
        assert_eq!(
            find_delivery_failure(&DuatoFullyAdaptive::new(2), &topo, 16),
            None
        );
    }
}
