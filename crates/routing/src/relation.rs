//! The routing-relation interface shared by EbDa-derived and classic
//! algorithms.

use ebda_cdg::topology::{NodeId, Topology};
use ebda_core::{Channel, Dimension, Direction};
use std::fmt;
use std::sync::Arc;

/// An output selection: move one hop along `dim` in `dir` using virtual
/// channel `vc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortVc {
    /// Dimension of the link to take.
    pub dim: Dimension,
    /// Direction along that dimension.
    pub dir: Direction,
    /// Virtual channel (1-based).
    pub vc: u8,
}

impl fmt::Display for PortVc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}", self.dim, self.vc, self.dir)
    }
}

/// Routing state carried in a packet header between hops. The meaning is
/// algorithm-specific (a channel-class index for turn-based routing, a
/// phase for Elevator-First); [`INJECT`] is the fresh-packet state.
pub type RouteState = u16;

/// The state of a packet that has not yet taken its first hop.
pub const INJECT: RouteState = u16::MAX;

/// One admissible next hop: the port/VC to request and the state the packet
/// carries if granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteChoice {
    /// The output to request.
    pub port: PortVc,
    /// The packet's routing state after taking this hop.
    pub state: RouteState,
}

/// A routing relation: the function a router's routing unit computes.
///
/// Implementations must be deterministic (same inputs ⇒ same candidate
/// list) so simulations are reproducible; the *selection* among candidates
/// is the simulator's (or allocator's) job.
pub trait RoutingRelation: Send + Sync {
    /// Human-readable algorithm name.
    fn name(&self) -> &str;

    /// The channel-class universe of the algorithm — used to instantiate
    /// virtual channels and to verify the relation's channel dependency
    /// graph.
    fn universe(&self) -> &[Channel];

    /// Candidate next hops for a packet at `node` in routing state `state`,
    /// traveling from `src` to `dst`. An empty result at `node != dst`
    /// indicates a routing fault (valid relations never produce one for
    /// reachable destinations).
    fn route(
        &self,
        topo: &Topology,
        node: NodeId,
        state: RouteState,
        src: NodeId,
        dst: NodeId,
    ) -> Vec<RouteChoice>;

    /// Writes the candidates of [`RoutingRelation::route`] into `out`
    /// (cleared first). The default delegates to `route`; hot relations
    /// override it so per-hop routing reuses the caller's buffer instead
    /// of allocating — the simulator's VC-allocation loop depends on this.
    fn route_into(
        &self,
        topo: &Topology,
        node: NodeId,
        state: RouteState,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<RouteChoice>,
    ) {
        out.clear();
        out.extend(self.route(topo, node, state, src, dst));
    }

    /// Per-dimension virtual-channel budget the algorithm needs on `topo`.
    fn vcs(&self, topo: &Topology) -> Vec<u8> {
        let mut vcs = vec![1u8; topo.dims()];
        for c in self.universe() {
            if c.dim.index() < vcs.len() {
                vcs[c.dim.index()] = vcs[c.dim.index()].max(c.vc);
            }
        }
        vcs
    }

    /// The relation resolved against `topo` once, for callers that ask
    /// many queries on one fabric (a simulation run; a router being
    /// programmed). Relations that can precompute per-topology tables
    /// return a view whose queries only look things up; the default
    /// `None` means "nothing to resolve" and [`bind`] forwards instead.
    fn bind(&self, _topo: &Topology) -> Option<Arc<dyn BoundRelation + '_>> {
        None
    }
}

/// A [`RoutingRelation`] bound to one topology: same candidates in the
/// same order as [`RoutingRelation::route_into`] on that topology.
pub trait BoundRelation: Send + Sync {
    /// Writes the candidates for a packet at `node` in `state`, travelling
    /// from `src` to `dst`, into `out` (cleared first).
    fn route_into(
        &self,
        node: NodeId,
        state: RouteState,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<RouteChoice>,
    );
}

/// Binds `relation` to `topo`: its own resolved view when it offers one,
/// otherwise a wrapper that forwards every query with a copy of `topo`.
pub fn bind<'a>(relation: &'a dyn RoutingRelation, topo: &Topology) -> Arc<dyn BoundRelation + 'a> {
    relation.bind(topo).unwrap_or_else(|| {
        Arc::new(Forwarding {
            relation,
            topo: topo.clone(),
        })
    })
}

/// The bound view of a relation with nothing to resolve.
struct Forwarding<'a> {
    relation: &'a dyn RoutingRelation,
    topo: Topology,
}

impl BoundRelation for Forwarding<'_> {
    fn route_into(
        &self,
        node: NodeId,
        state: RouteState,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<RouteChoice>,
    ) {
        self.relation
            .route_into(&self.topo, node, state, src, dst, out);
    }
}

/// Walks a packet from `src` to `dst`, always taking the first candidate —
/// a convenience for tests and examples ("does the relation actually
/// deliver?"). Returns the node sequence, or `None` if the relation dead-
/// ends or exceeds `limit` hops.
pub fn walk_first_choice(
    relation: &dyn RoutingRelation,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    limit: usize,
) -> Option<Vec<NodeId>> {
    let mut node = src;
    let mut state = INJECT;
    let mut path = vec![src];
    for _ in 0..limit {
        if node == dst {
            return Some(path);
        }
        let choices = relation.route(topo, node, state, src, dst);
        let first = choices.first()?;
        node = topo.neighbor(node, first.port.dim, first.port.dir)?;
        state = first.state;
        path.push(node);
    }
    (node == dst).then_some(path)
}

/// Exhaustively checks that `relation` delivers every source/destination
/// pair of `topo` along every candidate branch within `limit` hops, never
/// dead-ending. Returns the first failing `(src, dst)` pair, if any.
///
/// This is the functional-correctness companion to the structural CDG
/// check: acyclic dependencies *and* guaranteed delivery.
pub fn find_delivery_failure(
    relation: &dyn RoutingRelation,
    topo: &Topology,
    limit: usize,
) -> Option<(NodeId, NodeId)> {
    for src in topo.nodes() {
        for dst in topo.nodes() {
            if src == dst {
                continue;
            }
            if !delivers_all_branches(relation, topo, src, dst, limit) {
                return Some((src, dst));
            }
        }
    }
    None
}

fn delivers_all_branches(
    relation: &dyn RoutingRelation,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    limit: usize,
) -> bool {
    // BFS over (node, state) pairs; every expanded state must either be at
    // dst or have at least one candidate, and all candidates stay within
    // the hop limit.
    use std::collections::{HashSet, VecDeque};
    let mut seen: HashSet<(NodeId, RouteState)> = HashSet::new();
    let mut queue: VecDeque<(NodeId, RouteState, usize)> = VecDeque::new();
    queue.push_back((src, INJECT, 0));
    seen.insert((src, INJECT));
    while let Some((node, state, hops)) = queue.pop_front() {
        if node == dst {
            continue;
        }
        if hops >= limit {
            return false;
        }
        let choices = relation.route(topo, node, state, src, dst);
        if choices.is_empty() {
            return false;
        }
        for ch in choices {
            let Some(next) = topo.neighbor(node, ch.port.dim, ch.port.dir) else {
                return false; // relation pointed at a missing link
            };
            if seen.insert((next, ch.state)) {
                queue.push_back((next, ch.state, hops + 1));
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy relation: always go +X on VC 1 (only delivers east-bound
    /// same-row pairs).
    struct EastOnly {
        universe: Vec<Channel>,
    }

    impl EastOnly {
        fn new() -> EastOnly {
            EastOnly {
                universe: vec![Channel::new(Dimension::X, Direction::Plus)],
            }
        }
    }

    impl RoutingRelation for EastOnly {
        fn name(&self) -> &str {
            "east-only"
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
            let c = topo.coords(node);
            let d = topo.coords(dst);
            if d[0] > c[0] {
                vec![RouteChoice {
                    port: PortVc {
                        dim: Dimension::X,
                        dir: Direction::Plus,
                        vc: 1,
                    },
                    state: 0,
                }]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn walk_follows_choices() {
        let topo = Topology::mesh(&[4, 1]);
        let r = EastOnly::new();
        let path = walk_first_choice(&r, &topo, 0, 3, 10).unwrap();
        assert_eq!(path, vec![0, 1, 2, 3]);
    }

    #[test]
    fn walk_detects_dead_ends() {
        let topo = Topology::mesh(&[4, 2]);
        let r = EastOnly::new();
        // Different row: the relation dead-ends immediately.
        let src = topo.node_at(&[0, 0]);
        let dst = topo.node_at(&[0, 1]);
        assert!(walk_first_choice(&r, &topo, src, dst, 10).is_none());
    }

    #[test]
    fn delivery_check_flags_partial_relations() {
        let topo = Topology::mesh(&[3, 3]);
        let r = EastOnly::new();
        assert!(find_delivery_failure(&r, &topo, 10).is_some());
    }

    #[test]
    fn default_vcs_come_from_universe() {
        let topo = Topology::mesh(&[3, 3]);
        let r = EastOnly::new();
        assert_eq!(r.vcs(&topo), vec![1, 1]);
    }
}
