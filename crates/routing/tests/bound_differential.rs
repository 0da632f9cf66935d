//! Differential test of `TurnRouting`'s resolved tables against the code
//! they replaced.
//!
//! `Reference` below is the previous implementation, kept here verbatim
//! in behaviour: per-destination distance tables built lazily by a
//! backward BFS that asks `Topology::neighbor` and `Channel::class` per
//! popped state, cached in a `Mutex<(Option<Topology>, HashMap<..>)>`
//! keyed to one topology, and a candidate loop that asks the topology
//! again on every query. For every `(node, state, dst)` of every fabric
//! below, the library's topology-taking `route_into`, its bound view and
//! `legal_distance` must give the reference's candidates in the
//! reference's order.

use ebda_core::{catalog, Channel, Dimension, Direction, PartitionSeq, TurnSet};
use ebda_routing::classic::DimensionOrder;
use ebda_routing::{
    bind, NodeId, PortVc, RouteChoice, RouteState, RoutingRelation, Topology, TurnRouting, INJECT,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

const UNREACHABLE: u32 = u32::MAX;

type DistCache = (Option<Topology>, HashMap<NodeId, Arc<Vec<u32>>>);

struct Reference {
    universe: Vec<Channel>,
    /// allow[a][b]; row `k` is the injection state.
    allow: Vec<Vec<bool>>,
    dist_cache: Mutex<DistCache>,
}

impl Reference {
    fn new(universe: &[Channel], turns: &TurnSet) -> Reference {
        let k = universe.len();
        let mut allow = vec![vec![false; k]; k + 1];
        for (a, &ca) in universe.iter().enumerate() {
            for (b, &cb) in universe.iter().enumerate() {
                allow[a][b] = turns.allows(ca, cb);
            }
        }
        allow[k] = vec![true; k];
        Reference {
            universe: universe.to_vec(),
            allow,
            dist_cache: Mutex::new((None, HashMap::new())),
        }
    }

    fn state_index(&self, node: NodeId, state: RouteState) -> usize {
        let k = self.universe.len();
        let s = if state == INJECT { k } else { state as usize };
        node * (k + 1) + s
    }

    fn dist_table(&self, topo: &Topology, dst: NodeId) -> Arc<Vec<u32>> {
        {
            let mut guard = self.dist_cache.lock().unwrap();
            let (cached_topo, tables) = &mut *guard;
            if cached_topo.as_ref() != Some(topo) {
                *cached_topo = Some(topo.clone());
                tables.clear();
            } else if let Some(t) = tables.get(&dst) {
                return t.clone();
            }
        }
        let table = Arc::new(self.build_dist(topo, dst));
        self.dist_cache.lock().unwrap().1.insert(dst, table.clone());
        table
    }

    fn build_dist(&self, topo: &Topology, dst: NodeId) -> Vec<u32> {
        let k = self.universe.len();
        let mut dist = vec![UNREACHABLE; topo.node_count() * (k + 1)];
        let mut queue = VecDeque::new();
        for s in 0..=k {
            dist[dst * (k + 1) + s] = 0;
            queue.push_back((dst, s));
        }
        while let Some((node, s)) = queue.pop_front() {
            let d = dist[node * (k + 1) + s];
            if s == k {
                continue;
            }
            let c = self.universe[s];
            let Some(prev) = topo.neighbor(node, c.dim, c.dir.opposite()) else {
                continue;
            };
            if !c.class.contains(&topo.coords(prev)) {
                continue;
            }
            for ps in 0..=k {
                if !self.allow[ps][s] {
                    continue;
                }
                let idx = prev * (k + 1) + ps;
                if dist[idx] == UNREACHABLE {
                    dist[idx] = d + 1;
                    queue.push_back((prev, ps));
                }
            }
        }
        dist
    }

    fn legal_distance(
        &self,
        topo: &Topology,
        node: NodeId,
        state: RouteState,
        dst: NodeId,
    ) -> Option<u32> {
        let d = self.dist_table(topo, dst)[self.state_index(node, state)];
        (d != UNREACHABLE).then_some(d)
    }

    fn route_into(
        &self,
        topo: &Topology,
        node: NodeId,
        state: RouteState,
        dst: NodeId,
        out: &mut Vec<RouteChoice>,
    ) {
        out.clear();
        let dist = self.dist_table(topo, dst);
        let k = self.universe.len();
        let here = dist[self.state_index(node, state)];
        if here == UNREACHABLE || here == 0 {
            return;
        }
        let s = if state == INJECT { k } else { state as usize };
        let coords = topo.coords(node);
        for (ci, &c) in self.universe.iter().enumerate() {
            if !self.allow[s][ci] || !c.class.contains(&coords) {
                continue;
            }
            let Some(next) = topo.neighbor(node, c.dim, c.dir) else {
                continue;
            };
            if dist[next * (k + 1) + ci] == here - 1 {
                out.push(RouteChoice {
                    port: PortVc {
                        dim: c.dim,
                        dir: c.dir,
                        vc: c.vc,
                    },
                    state: ci as RouteState,
                });
            }
        }
    }
}

/// Every state of the relation: injection plus one per channel class.
fn states(r: &TurnRouting) -> Vec<RouteState> {
    std::iter::once(INJECT)
        .chain((0..r.universe().len()).map(|s| s as RouteState))
        .collect()
}

/// Compares every library entry point with the reference over every
/// `(node, state, dst)` of `topo`, and fails a case that compared nothing
/// but empty lists.
fn assert_same_everywhere(name: &str, r: &TurnRouting, reference: &Reference, topo: &Topology) {
    let bound = bind(r, topo);
    let (mut want, mut legacy, mut via_bound) = (Vec::new(), Vec::new(), Vec::new());
    let mut candidates = 0usize;
    for dst in topo.nodes() {
        for node in topo.nodes() {
            for &state in &states(r) {
                reference.route_into(topo, node, state, dst, &mut want);
                r.route_into(topo, node, state, node, dst, &mut legacy);
                bound.route_into(node, state, node, dst, &mut via_bound);
                let at = format!("{name}: node {node} state {state} dst {dst}");
                assert_eq!(legacy, want, "route_into(topo) differs at {at}");
                assert_eq!(via_bound, want, "bound view differs at {at}");
                assert_eq!(r.route(topo, node, state, node, dst), want, "{at}");
                assert_eq!(
                    r.legal_distance(topo, node, state, dst),
                    reference.legal_distance(topo, node, state, dst),
                    "legal_distance differs at {at}"
                );
                candidates += want.len();
            }
        }
    }
    assert!(candidates > 0, "{name}: nothing was compared");
}

fn check(name: &str, seq: &PartitionSeq, topo: &Topology) {
    let r = TurnRouting::from_design(name, seq).unwrap();
    let reference = Reference::new(r.universe(), r.turns());
    assert_same_everywhere(name, &r, &reference, topo);
}

#[test]
fn mesh_5x5_catalog_designs() {
    let topo = Topology::mesh(&[5, 5]);
    for (name, seq) in [
        ("xy", catalog::p1_xy()),
        ("west-first", catalog::p3_west_first()),
        ("negative-first", catalog::p4_negative_first()),
        ("north-last", catalog::north_last()),
        ("dyxy", catalog::fig7b_dyxy()),
        ("hamiltonian", catalog::hamiltonian()),
    ] {
        check(name, &seq, &topo);
    }
}

#[test]
fn odd_even_parity_classes() {
    // Classes that exist only in odd or only in even columns: the
    // hop tables must fold `class.contains` in exactly as the per-query
    // check did.
    check("odd-even", &catalog::odd_even(), &Topology::mesh(&[5, 5]));
}

#[test]
fn dateline_tori() {
    for radix in [[4usize, 4], [5, 3]] {
        check(
            &format!("dateline {radix:?}"),
            &catalog::torus_dateline(&radix),
            &Topology::torus(&radix),
        );
    }
}

#[test]
fn partial_3d_elevators() {
    let topo = Topology::mesh(&[3, 3, 2]).with_partial_dim(Dimension::Z, [vec![0, 0], vec![2, 2]]);
    check("table5", &catalog::table5_partial3d(), &topo);
}

#[test]
fn mesh_with_a_failed_link_and_back() {
    // One relation moved between a healthy and a faulty mesh and back,
    // as the simulator's fault handler does: each side must match a
    // reference that went through the same moves, and a view bound to
    // the healthy mesh must keep answering for it while the relation
    // itself has moved on.
    let healthy = Topology::mesh(&[4, 4]);
    let faulty =
        healthy
            .clone()
            .with_failed_link(healthy.node_at(&[1, 3]), Dimension::X, Direction::Plus);
    let r = TurnRouting::from_design("north-last", &catalog::north_last()).unwrap();
    let reference = Reference::new(r.universe(), r.turns());
    let healthy_view = bind(&r, &healthy);
    assert_same_everywhere("healthy", &r, &reference, &healthy);
    assert_same_everywhere("faulty", &r, &reference, &faulty);

    let (src, dst) = (healthy.node_at(&[0, 3]), healthy.node_at(&[3, 3]));
    let (mut held, mut want) = (Vec::new(), Vec::new());
    healthy_view.route_into(src, INJECT, src, dst, &mut held);
    reference.route_into(&healthy, src, INJECT, dst, &mut want);
    assert_eq!(held, want, "a bound view must not follow the relation");
    reference.route_into(&faulty, src, INJECT, dst, &mut want);
    assert_ne!(held, want, "the cut row must change this pair's route");

    assert_same_everywhere("healthy again", &r, &reference, &healthy);
}

#[test]
fn relations_without_a_bound_view_are_forwarded() {
    let topo = Topology::mesh(&[4, 4]);
    let xy = DimensionOrder::xy();
    assert!(xy.bind(&topo).is_none(), "xy has nothing to resolve");
    let bound = bind(&xy, &topo);
    let mut got = Vec::new();
    for src in topo.nodes() {
        for dst in topo.nodes() {
            bound.route_into(src, INJECT, src, dst, &mut got);
            assert_eq!(got, xy.route(&topo, src, INJECT, src, dst));
        }
    }
}
