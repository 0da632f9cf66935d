//! Certification of *routing functions*: observe every turn a
//! [`RoutingRelation`] can take on a topology, lift the observations to
//! channel classes (refining by node parity when needed), and ask
//! [`ebda_core::certify`] for a partitioning certificate.
//!
//! This is the EbDa verification story applied to running code rather than
//! a paper description: the classic Odd-Even implementation, whose plain
//! turn footprint is *not* certifiable, certifies as soon as the lifting
//! splits channels by column parity — exactly the classes Section 6.2
//! chooses by insight.

use crate::relation::RoutingRelation;
use crate::verify::{Hop, Hops};
use ebda_cdg::graph::ConcreteChannel;
use ebda_cdg::topology::Topology;
use ebda_core::certify::certify;
use ebda_core::{Channel, ChannelClass, Dimension, Parity, PartitionSeq, Turn, TurnSet};

/// How observed channels are lifted to channel classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassScheme {
    /// One class per (dimension, direction, VC) — the paper's default.
    Plain,
    /// Additionally split every channel by the parity of the from-node
    /// coordinate along the given axis (Odd-Even's "columns" for axis X).
    ParityOf(Dimension),
    /// Split the channels *along* the given dimension into one class per
    /// from-node coordinate (other dimensions stay plain) — the refinement
    /// that discovers torus dateline structure.
    CoordOf(Dimension),
}

impl std::fmt::Display for ClassScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClassScheme::Plain => write!(f, "plain channel classes"),
            ClassScheme::ParityOf(d) => write!(f, "classes split by {d}-parity"),
            ClassScheme::CoordOf(d) => write!(f, "{d}-channels split per coordinate"),
        }
    }
}

/// A successful relation-level certification.
#[derive(Debug, Clone)]
pub struct RelationCertificate {
    /// The partitioning certificate.
    pub design: PartitionSeq,
    /// The class scheme that made certification possible.
    pub scheme: ClassScheme,
    /// The observed class-level turns the certificate covers.
    pub observed_turns: TurnSet,
}

/// Attempts to certify a routing relation by observing its behaviour on
/// `topo` and trying progressively finer channel-class schemes: plain
/// first, then a parity split along each dimension, then a per-coordinate
/// split.
///
/// Class-level reasoning alone assumes mesh-monotone progress (a wrap ring
/// hides a same-class cycle no turn set records), so the procedure first
/// checks the **exact** relation-level CDG ([`crate::verify_relation`])
/// and refuses outright when it is cyclic — the compound verdict is sound
/// on any topology, wraps included. The relation is walked once: the
/// exact CDG and every scheme's observations are read off the same hops.
///
/// Returns the first scheme that certifies. `None` means the relation is
/// either genuinely cyclic (exact check failed) or beyond this scheme
/// ladder's expressiveness.
pub fn certify_relation(
    topo: &Topology,
    relation: &dyn RoutingRelation,
) -> Option<RelationCertificate> {
    let hops = Hops::of(topo, relation);
    if !hops.cdg(topo, relation).is_acyclic() {
        return None; // exactly cyclic: nothing to certify
    }
    let mut schemes = vec![ClassScheme::Plain];
    for d in 0..topo.dims() {
        schemes.push(ClassScheme::ParityOf(Dimension::new(d as u8)));
    }
    for d in 0..topo.dims() {
        schemes.push(ClassScheme::CoordOf(Dimension::new(d as u8)));
    }
    for scheme in schemes {
        let (universe, turns) = observe(topo, &hops.order, scheme);
        if let Ok(design) = certify(&universe, &turns) {
            return Some(RelationCertificate {
                design,
                scheme,
                observed_turns: turns,
            });
        }
    }
    None
}

/// Lifts the hops a relation takes to the class-level turns among them
/// under `scheme`, plus the class universe they touch in first-seen
/// order.
fn observe(topo: &Topology, hops: &[Hop], scheme: ClassScheme) -> (Vec<Channel>, TurnSet) {
    let mut turns = TurnSet::new();
    let mut universe: Vec<Channel> = Vec::new();
    for &(via, out) in hops {
        let to_class = lift(topo, out, scheme);
        if !universe.contains(&to_class) {
            universe.push(to_class);
        }
        if let Some(from_class) = via.map(|held| lift(topo, held, scheme)) {
            if from_class != to_class {
                turns.insert(Turn::new(from_class, to_class));
            }
        }
    }
    (universe, turns)
}

/// Lifts a concrete channel to a channel class.
fn lift(topo: &Topology, hop: ConcreteChannel, scheme: ClassScheme) -> Channel {
    let base = Channel::with_vc(hop.dim, hop.dir, hop.vc);
    match scheme {
        ClassScheme::Plain => base,
        ClassScheme::ParityOf(axis) => {
            let coords = topo.coords(hop.from);
            let parity = Parity::of(coords[axis.index()]);
            Channel {
                class: ChannelClass::AtParity { axis, parity },
                ..base
            }
        }
        ClassScheme::CoordOf(axis) => {
            if hop.dim != axis {
                return base;
            }
            let coords = topo.coords(hop.from);
            Channel {
                class: ebda_core::ChannelClass::AtCoord {
                    axis,
                    value: coords[axis.index()],
                },
                ..base
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::{DimensionOrder, NegativeFirst, OddEven, WestFirst};
    use crate::relation::PortVc;
    use crate::turn_based::TurnRouting;
    use ebda_cdg::topology::NodeId;
    use ebda_core::catalog;

    #[test]
    fn xy_certifies_with_plain_classes() {
        let topo = Topology::mesh(&[4, 4]);
        let cert = certify_relation(&topo, &DimensionOrder::xy()).expect("certifiable");
        assert_eq!(cert.scheme, ClassScheme::Plain);
        assert!(cert.design.validate().is_ok());
    }

    #[test]
    fn west_first_and_negative_first_certify_plain() {
        let topo = Topology::mesh(&[5, 5]);
        for relation in [
            Box::new(WestFirst::new()) as Box<dyn RoutingRelation>,
            Box::new(NegativeFirst::new(2)),
        ] {
            let cert = certify_relation(&topo, relation.as_ref()).expect("certifiable");
            assert_eq!(cert.scheme, ClassScheme::Plain, "{}", relation.name());
        }
    }

    #[test]
    fn odd_even_needs_and_gets_the_column_split() {
        // The headline: Chiu's ROUTE function certifies only once channels
        // are split by column (X) parity — the classes the paper picks by
        // hand in Section 6.2, discovered automatically here.
        let topo = Topology::mesh(&[6, 6]);
        let cert = certify_relation(&topo, &OddEven::new()).expect("certifiable");
        assert_eq!(cert.scheme, ClassScheme::ParityOf(Dimension::X));
        assert!(cert.design.validate().is_ok());
        // The certificate's partitions mirror the odd-even structure:
        // Y channels split by column with X- before X+.
        assert!(cert.design.len() >= 2);
    }

    #[test]
    fn torus_dateline_certifies_and_the_broken_variant_does_not() {
        // On tori the exact-CDG pre-check is what separates the two: the
        // dateline relation is exactly acyclic and certifies (its observed
        // turn set is a one-way ladder), while the no-dateline variant's
        // ring cycle lives entirely in same-class straight-throughs that
        // no turn set records — the pre-check catches it.
        let topo = Topology::torus(&[4, 4]);
        let cert = certify_relation(&topo, &crate::classic::TorusDateline::new(2))
            .expect("dateline must certify");
        assert!(cert.design.validate().is_ok());
        assert!(
            certify_relation(&topo, &crate::classic::TorusDateline::without_dateline(2)).is_none()
        );
    }

    #[test]
    fn ebda_derived_relations_certify_plain() {
        let topo = Topology::mesh(&[4, 4]);
        let r = TurnRouting::from_design("dyxy", &catalog::fig7b_dyxy()).unwrap();
        let cert = certify_relation(&topo, &r).expect("certifiable");
        assert_eq!(cert.scheme, ClassScheme::Plain);
    }

    #[test]
    fn broken_relations_are_rejected_by_every_scheme() {
        // YX+XY mixed (all turns, minimal): no scheme can certify it, and
        // indeed its exact CDG is cyclic.
        struct AllMinimal(Vec<Channel>);
        impl RoutingRelation for AllMinimal {
            fn name(&self) -> &str {
                "all-minimal"
            }
            fn universe(&self) -> &[Channel] {
                &self.0
            }
            fn route(
                &self,
                topo: &Topology,
                node: NodeId,
                _state: u16,
                _src: NodeId,
                dst: NodeId,
            ) -> Vec<crate::relation::RouteChoice> {
                let c = topo.coords(node);
                let d = topo.coords(dst);
                let mut out = Vec::new();
                for (dim, delta) in [(Dimension::X, d[0] - c[0]), (Dimension::Y, d[1] - c[1])] {
                    if delta != 0 {
                        out.push(crate::relation::RouteChoice {
                            port: PortVc {
                                dim,
                                dir: if delta > 0 {
                                    ebda_core::Direction::Plus
                                } else {
                                    ebda_core::Direction::Minus
                                },
                                vc: 1,
                            },
                            state: 0,
                        });
                    }
                }
                out
            }
        }
        let topo = Topology::mesh(&[4, 4]);
        let rogue = AllMinimal(ebda_core::parse_channels("X+ X- Y+ Y-").unwrap());
        assert!(certify_relation(&topo, &rogue).is_none());
        assert!(crate::verify::verify_relation(&topo, &rogue).is_err());
    }
}
