//! Turn-set-driven routing: the bridge from EbDa's theory to a working
//! router.
//!
//! [`TurnRouting`] takes any extracted turn set (Theorems 1–3) and turns it
//! into a [`RoutingRelation`] by shortest-path search over the *product
//! graph* of (node, channel class) states. A hop is offered iff it lies on
//! some shortest legal path to the destination, which guarantees:
//!
//! * **deadlock freedom** — only turns of the (verified-acyclic) turn set
//!   are ever taken;
//! * **no dead ends** — candidates strictly decrease the legal distance, so
//!   a packet can always continue;
//! * **maximum adaptiveness within the turn set** — every hop on every
//!   shortest legal path is offered;
//! * **irregular-topology support** — on vertically partially connected 3D
//!   meshes the legal shortest path automatically detours via an elevator.
//!
//! # Resolution
//!
//! Everything a query needs is resolved against the topology once, into
//! one `Resolved` structure: per-(node, class) next-hop and predecessor
//! tables, read off `ebda_cdg::LinkTable` (which classes run on which
//! link: class membership, mesh edges, missing partial links and failed
//! links already folded in), and one distance table per destination: a
//! `u16` per (node, class) state, the injection state's distance derived
//! from the node's class states. The tables are built on first use, 64
//! destinations per backward search over the predecessor table: each state
//! carries one bit per destination, so a level of the search advances all
//! 64 at once. `route`,
//! `route_into`, `legal_distance` and the view handed out by
//! [`RoutingRelation::bind`] all run the same candidate loop over it. The
//! topology-taking entry points first find the structure for their
//! topology (one lock, one topology comparison; a different topology
//! resolves afresh and replaces it); a bound view holds it directly, so
//! its queries take no lock and allocate nothing.

use crate::relation::{BoundRelation, PortVc, RouteChoice, RouteState, RoutingRelation, INJECT};
use ebda_cdg::topology::{NodeId, Topology};
use ebda_cdg::LinkTable;
use ebda_core::{extract_turns, Channel, Dimension, Direction, PartitionSeq, Result, TurnSet};
use std::sync::{Arc, Mutex, OnceLock};

/// Stored distance of unreachable states. A stored distance is at most
/// one less: `build_block` panics on a longer legal path.
const UNREACHABLE: u16 = u16::MAX;

/// Table entry for "no such hop".
const NO_NODE: u32 = u32::MAX;

/// A routing relation derived from a class-level turn set.
pub struct TurnRouting {
    name: String,
    universe: Vec<Channel>,
    turns: TurnSet,
    /// The relation resolved against the topology it was last used on.
    resolved: Mutex<Option<Arc<Resolved>>>,
}

/// A [`TurnRouting`] resolved against one topology. A node's states are
/// its `k` classes, stored at `node * k + s`, and injection, `s == k`.
struct Resolved {
    topo: Topology,
    /// Number of channel classes.
    k: usize,
    /// Length of one destination's row of `dist`: `n * k`.
    states: usize,
    /// `allow[s * k + c]`: may a packet in state `s` continue on class
    /// `c`? Injection (row `k`) may start on any class.
    allow: Vec<bool>,
    /// The hop each class stands for.
    choices: Vec<RouteChoice>,
    /// `next[node * k + c]`: where class `c` leads from `node`, or
    /// [`NO_NODE`] when the class does not exist there or the link is
    /// missing.
    next: Vec<u32>,
    /// The inverse: `prev[node * k + c]` is the node whose class-`c` hop
    /// lands on `node`.
    prev: Vec<u32>,
    /// `preds[pred_at[s]..pred_at[s + 1]]`: the class states that may
    /// continue on class `s` (every `ps < k` with `allow[ps * k + s]`).
    pred_at: Vec<usize>,
    preds: Vec<u32>,
    /// Distance-to-`dst` over states, one block of [`BLOCK`] destinations
    /// per `OnceLock`, built on first use: `dst`'s row is the
    /// `dst % BLOCK`-th row of block `dst / BLOCK`.
    dist: Vec<OnceLock<Vec<u16>>>,
}

/// Destinations searched at once: one bit each in a state's word.
const BLOCK: usize = u64::BITS as usize;

impl Resolved {
    fn new(universe: &[Channel], turns: &TurnSet, topo: &Topology) -> Resolved {
        let k = universe.len();
        let n = topo.node_count();
        let mut allow = vec![true; (k + 1) * k];
        for (a, &ca) in universe.iter().enumerate() {
            for (b, &cb) in universe.iter().enumerate() {
                allow[a * k + b] = turns.allows(ca, cb);
            }
        }
        // `distance` derives injection from this: a class goes straight on.
        debug_assert!((0..k).all(|c| allow[c * k + c]));
        let (mut pred_at, mut preds) = (vec![0], Vec::new());
        for s in 0..k {
            preds.extend((0..k as u32).filter(|&ps| allow[ps as usize * k + s]));
            pred_at.push(preds.len());
        }
        let choices = universe
            .iter()
            .enumerate()
            .map(|(ci, c)| RouteChoice {
                port: PortVc {
                    dim: c.dim,
                    dir: c.dir,
                    vc: c.vc,
                },
                state: ci as RouteState,
            })
            .collect();
        let links = LinkTable::new(topo, universe);
        let mut next = vec![NO_NODE; n * k];
        let mut prev = vec![NO_NODE; n * k];
        for node in topo.nodes() {
            for dim in (0..topo.dims() as u8).map(Dimension::new) {
                for dir in [Direction::Plus, Direction::Minus] {
                    let Some(to) = links.neighbor(node, dim, dir) else {
                        continue;
                    };
                    for ci in links.classes(node, dim, dir) {
                        next[node * k + ci] = to as u32;
                        prev[to * k + ci] = node as u32;
                    }
                }
            }
        }
        Resolved {
            topo: topo.clone(),
            k,
            states: n * k,
            allow,
            choices,
            next,
            prev,
            pred_at,
            preds,
            dist: (0..n.div_ceil(BLOCK)).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Row of `state` in `allow`; below `k`, its offset in a node's states.
    fn state_row(&self, state: RouteState) -> usize {
        if state == INJECT {
            self.k
        } else {
            state as usize
        }
    }

    fn dist_to(&self, dst: NodeId) -> &[u16] {
        let block = self.dist[dst / BLOCK].get_or_init(|| self.build_block(dst / BLOCK * BLOCK));
        &block[dst % BLOCK * self.states..][..self.states]
    }

    /// Distance from `node` in state row `s`, `None` when unreachable:
    /// stored for a class state; for the injection state, the least over
    /// the node's class states. That is 0 at the destination and elsewhere
    /// 1 + the least over the node's first hops: a class state goes on by
    /// a first hop, and the best first hop's class may go straight on.
    fn distance(&self, dist: &[u16], node: NodeId, s: usize) -> Option<u32> {
        let row = &dist[node * self.k..][..self.k];
        let d = if s < self.k {
            row[s]
        } else {
            *row.iter().min().unwrap_or(&UNREACHABLE)
        };
        (d != UNREACHABLE).then_some(u32::from(d))
    }

    /// Backward BFS over reversed product-graph edges from the
    /// destinations `first..first + w` at once, level by level: bit `j` of
    /// a state's words stands for destination `first + j`. Distances go
    /// straight into its row, `rows[j * states..]`: a state-major buffer
    /// transposed afterwards measured slower (docs/PERFORMANCE.md §8).
    fn build_block(&self, first: NodeId) -> Vec<u16> {
        let (k, states) = (self.k, self.states);
        let w = BLOCK.min(self.topo.node_count() - first);
        let mut rows = vec![UNREACHABLE; w * states];
        let (mut reached, mut frontier) = (vec![0u64; states], vec![0u64; states]);
        // Arriving at a destination in any class state.
        let mut level: Vec<(u32, u32, u64)> = Vec::new();
        for j in 0..w {
            for s in 0..k {
                let x = (first + j) * k + s;
                (reached[x], rows[j * states + x]) = (1 << j, 0);
                level.push(((first + j) as u32, s as u32, 1 << j));
            }
        }
        let (mut next, mut d) = (Vec::new(), 0);
        while !level.is_empty() {
            d += 1;
            for &(node, s, bits) in &level {
                let (s, prev) = (s as usize, self.prev[node as usize * k + s as usize]);
                if prev == NO_NODE {
                    continue;
                }
                for &ps in &self.preds[self.pred_at[s]..self.pred_at[s + 1]] {
                    let y = prev as usize * k + ps as usize;
                    let mut new = bits & !reached[y];
                    reached[y] |= new;
                    if new != 0 {
                        if frontier[y] == 0 {
                            next.push((prev, ps));
                        }
                        frontier[y] |= new;
                    }
                    while new != 0 {
                        rows[new.trailing_zeros() as usize * states + y] = d;
                        new &= new - 1;
                    }
                }
            }
            assert!(
                next.is_empty() || d < UNREACHABLE,
                "legal path over 65534 hops"
            );
            level.clear();
            for (p, ps) in next.drain(..) {
                let y = p as usize * k + ps as usize;
                level.push((p, ps, std::mem::take(&mut frontier[y])));
            }
        }
        rows
    }
}

impl BoundRelation for Resolved {
    /// The one candidate loop: every class the state may continue on whose
    /// hop exists here and strictly decreases the legal distance.
    fn route_into(
        &self,
        node: NodeId,
        state: RouteState,
        _src: NodeId,
        dst: NodeId,
        out: &mut Vec<RouteChoice>,
    ) {
        out.clear();
        let dist = self.dist_to(dst);
        let k = self.k;
        let s = self.state_row(state);
        let Some(here) = self.distance(dist, node, s).filter(|&d| d > 0) else {
            return;
        };
        let allow = &self.allow[s * k..][..k];
        let next = &self.next[node * k..][..k];
        for ci in 0..k {
            if allow[ci]
                && next[ci] != NO_NODE
                && u32::from(dist[next[ci] as usize * k + ci]) == here - 1
            {
                out.push(self.choices[ci]);
            }
        }
    }
}

impl std::fmt::Debug for TurnRouting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TurnRouting")
            .field("name", &self.name)
            .field("universe", &self.universe)
            .field("turns", &self.turns.len())
            .finish()
    }
}

impl TurnRouting {
    /// Builds a relation from an explicit universe and turn set.
    ///
    /// # Panics
    ///
    /// Panics if the universe is empty or exceeds `u16::MAX - 1` classes.
    pub fn new(name: impl Into<String>, universe: Vec<Channel>, turns: TurnSet) -> TurnRouting {
        assert!(!universe.is_empty(), "a routing needs at least one channel");
        assert!(
            universe.len() < usize::from(u16::MAX),
            "too many channel classes"
        );
        TurnRouting {
            name: name.into(),
            universe,
            turns,
            resolved: Mutex::new(None),
        }
    }

    /// Builds a relation from an EbDa partition sequence by running the
    /// Theorem 1–3 turn extraction.
    ///
    /// ```
    /// use ebda_routing::{RoutingRelation, TurnRouting};
    /// use ebda_core::catalog;
    /// let r = TurnRouting::from_design("dyxy", &catalog::fig7b_dyxy())?;
    /// assert_eq!(r.universe().len(), 6);
    /// # Ok::<(), ebda_core::EbdaError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the validation error if the design violates Theorem 1 or
    /// partition disjointness.
    pub fn from_design(name: impl Into<String>, seq: &PartitionSeq) -> Result<TurnRouting> {
        let extraction = extract_turns(seq)?;
        let universe = seq.channels();
        Ok(TurnRouting::new(name, universe, extraction.into_turn_set()))
    }

    /// The turn set driving this relation.
    pub fn turns(&self) -> &TurnSet {
        &self.turns
    }

    /// Legal distance (hops) from `node` in `state` to `dst`, or `None`
    /// when unreachable under the turn set.
    pub fn legal_distance(
        &self,
        topo: &Topology,
        node: NodeId,
        state: RouteState,
        dst: NodeId,
    ) -> Option<u32> {
        let r = self.resolve(topo);
        r.distance(r.dist_to(dst), node, r.state_row(state))
    }

    /// The relation resolved against `topo`: the held structure when it
    /// is for this topology, otherwise a fresh one that replaces it (so
    /// moving the relation to another topology, e.g. after a link
    /// failure, never serves stale tables).
    fn resolve(&self, topo: &Topology) -> Arc<Resolved> {
        let mut held = self.resolved.lock().expect("resolution never panics");
        match &*held {
            Some(r) if r.topo == *topo => r.clone(),
            _ => {
                let r = Arc::new(Resolved::new(&self.universe, &self.turns, topo));
                *held = Some(r.clone());
                r
            }
        }
    }
}

impl RoutingRelation for TurnRouting {
    fn name(&self) -> &str {
        &self.name
    }

    fn universe(&self) -> &[Channel] {
        &self.universe
    }

    fn route(
        &self,
        topo: &Topology,
        node: NodeId,
        state: RouteState,
        src: NodeId,
        dst: NodeId,
    ) -> Vec<RouteChoice> {
        let mut out = Vec::new();
        self.route_into(topo, node, state, src, dst, &mut out);
        out
    }

    fn route_into(
        &self,
        topo: &Topology,
        node: NodeId,
        state: RouteState,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<RouteChoice>,
    ) {
        self.resolve(topo).route_into(node, state, src, dst, out);
    }

    fn bind(&self, topo: &Topology) -> Option<Arc<dyn BoundRelation + '_>> {
        Some(self.resolve(topo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{find_delivery_failure, walk_first_choice};
    use ebda_core::catalog;

    #[test]
    fn all_catalog_2d_designs_deliver_everywhere() {
        let topo = Topology::mesh(&[5, 5]);
        for (name, seq) in [
            ("xy", catalog::p1_xy()),
            ("p2", catalog::p2_partially_adaptive()),
            ("west-first", catalog::p3_west_first()),
            ("negative-first", catalog::p4_negative_first()),
            ("north-last", catalog::north_last()),
            ("dyxy", catalog::fig7b_dyxy()),
            ("fig7c", catalog::fig7c()),
            ("odd-even", catalog::odd_even()),
            ("hamiltonian", catalog::hamiltonian()),
        ] {
            let r = TurnRouting::from_design(name, &seq).unwrap();
            assert_eq!(
                find_delivery_failure(&r, &topo, 30),
                None,
                "{name} failed to deliver"
            );
        }
    }

    #[test]
    fn routes_are_minimal_on_full_meshes() {
        let topo = Topology::mesh(&[6, 6]);
        let r = TurnRouting::from_design("north-last", &catalog::north_last()).unwrap();
        for (src, dst) in [(0usize, 35usize), (35, 0), (5, 30), (17, 22)] {
            let path = walk_first_choice(&r, &topo, src, dst, 64).unwrap();
            assert_eq!(path.len() as u64 - 1, topo.distance(src, dst));
        }
    }

    #[test]
    fn partial_3d_detours_via_elevator() {
        // Table 5's design on a partially connected 3x3x2 mesh: a packet in
        // a column without an elevator must detour, and the product-graph
        // distance makes the relation do it automatically.
        let topo = Topology::mesh(&[3, 3, 2])
            .with_partial_dim(ebda_core::Dimension::Z, [vec![0, 0], vec![2, 2]]);
        let r = TurnRouting::from_design("table5", &catalog::table5_partial3d()).unwrap();
        let src = topo.node_at(&[1, 1, 0]);
        let dst = topo.node_at(&[1, 1, 1]);
        let path = walk_first_choice(&r, &topo, src, dst, 32).unwrap();
        assert!(path.len() > 2, "must detour via an elevator column");
        assert_eq!(*path.last().unwrap(), dst);
        assert_eq!(find_delivery_failure(&r, &topo, 64), None);
    }

    #[test]
    fn turn_prohibitions_are_respected_on_every_branch() {
        // For north-last, no branch may ever turn out of north.
        let topo = Topology::mesh(&[4, 4]);
        let r = TurnRouting::from_design("north-last", &catalog::north_last()).unwrap();
        let universe = r.universe().to_vec();
        use std::collections::VecDeque;
        for src in topo.nodes() {
            for dst in topo.nodes() {
                if src == dst {
                    continue;
                }
                let mut queue = VecDeque::new();
                queue.push_back((src, INJECT));
                let mut seen = std::collections::HashSet::new();
                while let Some((node, state)) = queue.pop_front() {
                    for ch in r.route(&topo, node, state, src, dst) {
                        if state != INJECT {
                            let prev = universe[state as usize];
                            // Previous north => next must still be north.
                            if prev.dim == ebda_core::Dimension::Y
                                && prev.dir == ebda_core::Direction::Plus
                            {
                                assert_eq!(ch.port.dim, ebda_core::Dimension::Y);
                                assert_eq!(ch.port.dir, ebda_core::Direction::Plus);
                            }
                        }
                        let next = topo.neighbor(node, ch.port.dim, ch.port.dir).unwrap();
                        if seen.insert((next, ch.state)) {
                            queue.push_back((next, ch.state));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ebda_dateline_design_routes_tori_minimally() {
        // The class-level dateline design drives a torus through the
        // generic turn router: minimal (wrap-aware) paths, full delivery.
        for radix in [[4usize, 4], [5, 3]] {
            let topo = Topology::torus(&radix);
            let seq = catalog::torus_dateline(&radix);
            let r = TurnRouting::from_design("dateline", &seq).unwrap();
            assert_eq!(
                find_delivery_failure(&r, &topo, 24),
                None,
                "failed on {radix:?}"
            );
            for (src, dst) in [(0usize, topo.node_count() - 1), (3, 0)] {
                let path = walk_first_choice(&r, &topo, src, dst, 24).unwrap();
                assert_eq!(
                    path.len() as u64 - 1,
                    topo.distance(src, dst),
                    "non-minimal on {radix:?}"
                );
            }
        }
    }

    #[test]
    fn reroutes_around_failed_links_using_theorem2_uturns() {
        // Theorem 2's note: U-turns matter for fault tolerance. Break the
        // only minimal link of a same-row pair; the design's allowed turns
        // (including the S->N U-turn north-last gets from Theorem 3) let
        // the packet detour instead of dead-ending.
        let base = Topology::mesh(&[4, 4]);
        let a = base.node_at(&[1, 3]);
        let topo = base.with_failed_link(a, ebda_core::Dimension::X, ebda_core::Direction::Plus);
        let r = TurnRouting::from_design("north-last", &catalog::north_last()).unwrap();
        let src = topo.node_at(&[0, 3]);
        let dst = topo.node_at(&[3, 3]);
        // The straight row is cut: a minimal path no longer exists.
        let path = walk_first_choice(&r, &topo, src, dst, 32).unwrap();
        assert!(path.len() - 1 > 3, "must detour: {path:?}");
        assert_eq!(*path.last().unwrap(), dst);
        // The detour requires a descent (Y-) and a climb back (Y+): only
        // legal because the turn set allows ending with north.
        let rows: Vec<i64> = path.iter().map(|&n| topo.coords(n)[1]).collect();
        assert!(rows.iter().any(|&y| y < 3), "detour leaves the row");
    }

    #[test]
    fn fault_detour_falls_back_to_unreachable_when_turns_forbid_it() {
        // XY routing cannot detour around the same fault for this pair:
        // once aligned in Y... actually XY (X+|X-|Y+|Y-) allows X-then-Y
        // only; a same-row pair with its row cut is unreachable.
        let base = Topology::mesh(&[4, 4]);
        let a = base.node_at(&[1, 3]);
        let topo = base.with_failed_link(a, ebda_core::Dimension::X, ebda_core::Direction::Plus);
        let r = TurnRouting::from_design("xy", &catalog::p1_xy()).unwrap();
        let src = topo.node_at(&[0, 3]);
        let dst = topo.node_at(&[3, 3]);
        // XY would need to leave the row southwards and come back north,
        // which its X-before-Y order forbids on the X legs after Y.
        assert!(
            r.route(&topo, src, INJECT, src, dst).is_empty(),
            "XY has no legal detour for a cut row at the top edge"
        );
    }

    #[test]
    fn cache_survives_topology_changes() {
        // The same relation used on two topologies (e.g. before and after
        // a link failure) must not serve stale distances.
        let r = TurnRouting::from_design("north-last", &catalog::north_last()).unwrap();
        let healthy = Topology::mesh(&[4, 4]);
        let src = healthy.node_at(&[0, 3]);
        let dst = healthy.node_at(&[3, 3]);
        assert_eq!(r.legal_distance(&healthy, src, INJECT, dst), Some(3));
        let faulty = healthy.clone().with_failed_link(
            healthy.node_at(&[1, 3]),
            ebda_core::Dimension::X,
            ebda_core::Direction::Plus,
        );
        // The cut row forces a detour: distance grows.
        let detour = r.legal_distance(&faulty, src, INJECT, dst).unwrap();
        assert!(detour > 3, "stale cache served the healthy distance");
        // And back again.
        assert_eq!(r.legal_distance(&healthy, src, INJECT, dst), Some(3));
    }

    #[test]
    fn unreachable_destination_reports_empty() {
        // A Y-only universe cannot move in X.
        let universe = ebda_core::parse_channels("Y+ Y-").unwrap();
        let r = TurnRouting::new("y-only", universe, TurnSet::new());
        let topo = Topology::mesh(&[3, 3]);
        let src = topo.node_at(&[0, 0]);
        let dst = topo.node_at(&[1, 0]);
        assert!(r.route(&topo, src, INJECT, src, dst).is_empty());
        assert_eq!(r.legal_distance(&topo, src, INJECT, dst), None);
    }

    #[test]
    fn each_block_holds_one_u16_per_node_and_class() {
        // West-first has k = 4 classes: on 16x16 four blocks of 64
        // destinations hold 524 288 bytes; 9x9 ends with a partial block.
        for (radix, bytes) in [(16, 524_288), (9, 52_488)] {
            let topo = Topology::mesh(&[radix, radix]);
            let r = TurnRouting::from_design("west-first", &catalog::p3_west_first()).unwrap();
            let resolved = r.resolve(&topo);
            for dst in topo.nodes() {
                resolved.dist_to(dst);
            }
            let (n, k) = (topo.node_count(), resolved.k);
            let mut total = 0;
            for (i, block) in resolved.dist.iter().enumerate() {
                let len = BLOCK.min(n - i * BLOCK) * n * k;
                let block = block.get().expect("every block was built");
                assert_eq!((block.len(), block.capacity()), (len, len), "{radix}: {i}");
                total += std::mem::size_of_val(&block[..]);
            }
            assert_eq!(total, bytes, "{radix}x{radix}");
        }
    }

    /// A relation on a line of `n` nodes that moves both ways.
    fn line(n: usize) -> (TurnRouting, Topology) {
        let universe = ebda_core::parse_channels("X+ X-").unwrap();
        let r = TurnRouting::new("line", universe, TurnSet::new());
        (r, Topology::mesh(&[n]))
    }

    #[test]
    fn the_longest_stored_distance_is_one_below_the_sentinel() {
        // 65 534 hops end to end. Going straight is always allowed, so
        // the class state of the first hop at the source is stored at the
        // full length, and the derived injection distance equals it.
        let (r, topo) = line(65_535);
        assert_eq!(r.legal_distance(&topo, 0, INJECT, 65_534), Some(65_534));
        assert_eq!(r.legal_distance(&topo, 0, 0, 65_534), Some(65_534));
        assert_eq!(r.legal_distance(&topo, 1, INJECT, 65_534), Some(65_533));
    }

    #[test]
    #[should_panic(expected = "legal path over 65534 hops")]
    fn a_longer_legal_path_is_refused() {
        let (r, topo) = line(65_536);
        r.legal_distance(&topo, 0, INJECT, 65_535);
    }

    #[test]
    fn distance_equals_manhattan_for_fully_adaptive() {
        let topo = Topology::mesh(&[5, 5]);
        let r = TurnRouting::from_design("dyxy", &catalog::fig7b_dyxy()).unwrap();
        for src in [0usize, 7, 24] {
            for dst in [3usize, 12, 20] {
                if src == dst {
                    continue;
                }
                assert_eq!(
                    r.legal_distance(&topo, src, INJECT, dst),
                    Some(topo.distance(src, dst) as u32)
                );
            }
        }
    }
}
