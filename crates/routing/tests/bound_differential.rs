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
//!
//! The library searches for 64 destinations at once, so the fabrics with
//! more than 64 nodes (a partial last block, built first), the 72-class
//! universe (more predecessor states than one word has bits) and the
//! four threads that share one relation on first use check what a
//! single-block fabric cannot. A universe with a class on an axis the
//! fabric lacks checks the link table the hop tables are read from.
//!
//! The library stores no distance for the injection state; it derives it
//! from the node's class states: 0 at the destination, elsewhere 1 + the
//! least over its first hops. A node whose every link has failed has no
//! first hop, which the last fabric checks.

use ebda_core::{catalog, Channel, Dimension, Direction, PartitionSeq, Turn, TurnSet};
use ebda_routing::classic::DimensionOrder;
use ebda_routing::{
    bind, NodeId, PortVc, RouteChoice, RouteState, RoutingRelation, Topology, TurnRouting, INJECT,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

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
/// but empty lists. Destinations go from the highest id down, so on a
/// fresh relation the first table built is the last block of destinations
/// (partial unless the node count is a multiple of the block width).
fn assert_same_everywhere(name: &str, r: &TurnRouting, reference: &Reference, topo: &Topology) {
    let bound = bind(r, topo);
    let (mut want, mut legacy, mut via_bound) = (Vec::new(), Vec::new(), Vec::new());
    let mut candidates = 0usize;
    for dst in (0..topo.node_count()).rev() {
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
fn a_first_class_that_cannot_turn() {
    // A design lists its first partition first, and those classes may
    // turn to any class, so their state can stand in for injection's.
    // North-last in reverse order starts with Y+, which only goes north.
    let design = TurnRouting::from_design("north-last", &catalog::north_last()).unwrap();
    let universe: Vec<Channel> = design.universe().iter().rev().copied().collect();
    let r = TurnRouting::new("reversed", universe.clone(), design.turns().clone());
    let reference = Reference::new(&universe, r.turns());
    assert_same_everywhere("reversed", &r, &reference, &Topology::mesh(&[5, 5]));
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
fn a_class_on_an_absent_axis() {
    // `Z1+` runs on no link of a 2-D fabric. `TurnRouting::new` never
    // asks `Topology::admit`, so the link table must leave the class out
    // as the reference's `neighbor` call does; the 2x5 torus adds a
    // radix-2 ring, where `+` and `-` reach the same node.
    let seq = PartitionSeq::parse("X1- | X1+ Y1+ Y1- Z1+").unwrap();
    for topo in [Topology::mesh(&[4, 4]), Topology::torus(&[2, 5])] {
        check(&format!("absent Z {:?}", topo.radix()), &seq, &topo);
    }
}

// The fabrics below have more than one 64-destination block, the last
// of them partial.

#[test]
fn mesh_9x9_past_one_block() {
    let topo = Topology::mesh(&[9, 9]);
    check("west-first 9x9", &catalog::p3_west_first(), &topo);
    check("odd-even 9x9", &catalog::odd_even(), &topo);
}

#[test]
fn dateline_torus_9x8_past_one_block() {
    check(
        "dateline 9x8",
        &catalog::torus_dateline(&[9, 8]),
        &Topology::torus(&[9, 8]),
    );
}

#[test]
fn partial_3d_past_one_block() {
    let topo = Topology::mesh(&[5, 5, 3])
        .with_partial_dim(Dimension::Z, [vec![0, 0], vec![2, 3], vec![4, 1]]);
    assert!(topo.node_count() > 64);
    check("table5 5x5x3", &catalog::table5_partial3d(), &topo);
}

#[test]
fn universe_wider_than_one_word() {
    // 72 classes: 18 VCs of each 2-D direction, so a class's predecessor
    // states (its 72 class states) do not fit one word.
    let universe: Vec<Channel> = (1..=18)
        .flat_map(|vc| {
            [Dimension::X, Dimension::Y]
                .into_iter()
                .flat_map(move |dim| {
                    [Direction::Plus, Direction::Minus].map(|dir| Channel::with_vc(dim, dir, vc))
                })
        })
        .collect();
    assert_eq!(universe.len(), 72);
    let mut turns = TurnSet::new();
    for (a, &from) in universe.iter().enumerate() {
        for (b, &to) in universe.iter().enumerate() {
            if (a * 7 + b * 3) % 5 != 0 {
                turns.insert(Turn::new(from, to));
            }
        }
    }
    let r = TurnRouting::new("wide", universe.clone(), turns.clone());
    let reference = Reference::new(&universe, &turns);
    assert_same_everywhere("wide", &r, &reference, &Topology::mesh(&[3, 3]));
}

#[test]
fn concurrent_first_use_agrees_with_one_thread() {
    // Four threads share one relation, as sweep points do, start together
    // and each walks the destinations in its own order; every answer must
    // be what a fresh relation gives on one thread.
    let topo = Topology::mesh(&[9, 9]);
    let n = topo.node_count();
    let design = catalog::p3_west_first();
    let fresh = TurnRouting::from_design("west-first", &design).unwrap();
    let cells: Vec<(NodeId, RouteState)> = topo
        .nodes()
        .flat_map(|node| states(&fresh).into_iter().map(move |s| (node, s)))
        .collect();
    let want: Vec<Vec<Option<u32>>> = (0..n)
        .map(|dst| {
            let at = |&(node, s): &(NodeId, RouteState)| fresh.legal_distance(&topo, node, s, dst);
            cells.iter().map(at).collect()
        })
        .collect();
    let shared = TurnRouting::from_design("west-first", &design).unwrap();
    let orders: [Vec<usize>; 4] = [
        (0..n).collect(),
        (0..n).rev().collect(),
        (0..n).map(|i| i * 29 % n).collect(),
        (0..n).map(|i| i * 64 % n).collect(),
    ];
    let start = Barrier::new(orders.len());
    thread::scope(|scope| {
        for order in &orders {
            let (topo, cells, want, shared, start) = (&topo, &cells, &want, &shared, &start);
            scope.spawn(move || {
                start.wait();
                for &dst in order {
                    for (&(node, s), &d) in cells.iter().zip(&want[dst]) {
                        let got = shared.legal_distance(topo, node, s, dst);
                        assert_eq!(got, d, "node {node} state {s} dst {dst}");
                    }
                }
            });
        }
    });
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
fn a_node_without_a_working_link() {
    // Every link of one node has failed, so no class has a hop there:
    // the injection state's distance must be unreachable toward every
    // other destination and 0 at the node itself, with the reference's
    // answers everywhere else.
    let base = Topology::mesh(&[4, 4]);
    let cut = base.node_at(&[1, 1]);
    let topo = [Dimension::X, Dimension::Y]
        .into_iter()
        .flat_map(|dim| [Direction::Plus, Direction::Minus].map(|dir| (dim, dir)))
        .fold(base, |t, (dim, dir)| t.with_failed_link(cut, dim, dir));
    for (name, seq) in [
        ("west-first", catalog::p3_west_first()),
        ("odd-even", catalog::odd_even()),
    ] {
        let r = TurnRouting::from_design(name, &seq).unwrap();
        for dst in topo.nodes().filter(|&dst| dst != cut) {
            assert_eq!(
                r.legal_distance(&topo, cut, INJECT, dst),
                None,
                "{name} to {dst}"
            );
            assert!(
                r.route(&topo, cut, INJECT, cut, dst).is_empty(),
                "{name} to {dst}"
            );
        }
        assert_eq!(r.legal_distance(&topo, cut, INJECT, cut), Some(0), "{name}");
        assert!(r.route(&topo, cut, INJECT, cut, cut).is_empty(), "{name}");
        let reference = Reference::new(r.universe(), r.turns());
        assert_same_everywhere(name, &r, &reference, &topo);
    }
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
