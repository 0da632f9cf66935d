//! The channel dependency graph (CDG) of Dally & Seitz, instantiated on a
//! concrete topology.
//!
//! Nodes are *concrete channels* — one per (directed link, virtual channel).
//! An edge `a → b` means a packet holding `a` may request `b` next; Dally's
//! criterion says the network is deadlock-free iff this graph is acyclic.

use crate::bitrow;
use crate::csr::{self, Csr, Successors};
use crate::topology::{NodeId, Topology};
use ebda_core::{Channel, Dimension, Direction, TurnSet};
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

/// A concrete channel instance: one virtual channel of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConcreteChannel {
    /// Source node of the link.
    pub from: NodeId,
    /// Destination node of the link.
    pub to: NodeId,
    /// The dimension the link runs along.
    pub dim: Dimension,
    /// The direction of travel.
    pub dir: Direction,
    /// The virtual channel (1-based).
    pub vc: u8,
}

impl ConcreteChannel {
    /// The class-level label of this channel — dimension, VC and
    /// direction (e.g. `X1+`), dropping the node coordinates. Coverage
    /// maps key CDG edges at this granularity so maps stay comparable
    /// across topology sizes.
    pub fn class_label(&self) -> String {
        format!("{}{}{}", self.dim, self.vc, self.dir)
    }
}

impl fmt::Display for ConcreteChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{} vc{} ({}→{})",
            self.dim, self.vc, self.dir, self.vc, self.from, self.to
        )
    }
}

/// A channel dependency graph over concrete channels, stored as a flat
/// [`Csr`] shared by Dally cycle detection, the channel-ordering
/// certificate and the Duato escape check.
///
/// **Edge-order invariant:** adjacency rows are laid out in channel
/// index order and every row's successor indices ascend — the build
/// enumerates candidate successors in channel-enumeration order, never
/// sorting after the fact. Cycle witnesses, topological orders and DOT
/// output are byte-stable because of this, and a search of the
/// [`Skeleton`] visits the same candidates in the same order.
#[derive(Debug, Clone)]
pub struct Cdg {
    channels: Vec<ConcreteChannel>,
    csr: Csr,
}

/// The turn-independent part of a CDG build — a function of topology,
/// VC counts and class universe only: the concrete channels, their
/// by-source-node groups and, per channel, the universe classes it
/// matches. A caller that checks several turn sets over one network
/// builds this once and, per turn set, either calls [`Skeleton::fill`]
/// for the graph or keeps a [`Relation`] and asks
/// [`Skeleton::is_acyclic`] for the verdict alone (the turn-model
/// enumerations, the incremental verifier).
///
/// A concrete channel *matches* a channel class when dimension,
/// direction and VC agree and the class's coordinate restriction holds
/// at the link's source node.
#[derive(Debug, Clone)]
pub struct Skeleton {
    channels: Vec<ConcreteChannel>,
    /// Channels are enumerated node-major, so those leaving node `n`
    /// are exactly `node_start[n]..node_start[n + 1]`.
    node_start: Vec<u32>,
    universe: Vec<Channel>,
    /// One [`bitrow`] per channel over `universe`: the classes it matches.
    class_mask: Vec<u64>,
    /// Adjacent channel pairs (`a.to == b.from`): the edge-count bound.
    pairs: usize,
}

thread_local! {
    /// The allow rows and one reach row of [`Skeleton::fill`], recycled
    /// so that a fill allocates only the CSR arrays it returns.
    static ROWS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A class relation over a [`Skeleton`]'s universe — the allow rows
/// [`Skeleton::fill`] derives from a turn set, editable one class pair
/// at a time — with what one verdict after another on that skeleton
/// shares: the reach rows of the search and the last cycle found. A
/// channel can also be marked dead (its link failed): it keeps its index
/// and loses every dependency.
#[derive(Debug, Clone)]
pub struct Relation {
    words: usize,
    /// Entry `j` of row `i`: `universe[i] -> universe[j]` is allowed.
    allow: Vec<u64>,
    /// One [`bitrow`] over the channels: those of failed links.
    dead: Vec<u64>,
    /// One row per channel, valid once the running search reached it.
    reach: Vec<u64>,
    cycle: Vec<u32>,
    searches: u64,
}

impl Relation {
    /// Allows or prohibits continuing from `universe[from]` on
    /// `universe[to]` (indices, so duplicate entries are set one by one).
    pub fn set(&mut self, from: usize, to: usize, allowed: bool) {
        let word = &mut self.allow[from * self.words + to / 64];
        *word = *word & !(1 << (to % 64)) | u64::from(allowed) << (to % 64);
    }

    /// Marks `channel` dead. A kept cycle through it is forgotten, so
    /// re-validating one never has to look at the dead.
    pub(crate) fn kill(&mut self, channel: u32) {
        bitrow::set(&mut self.dead, channel as usize);
        if self.cycle.contains(&channel) {
            self.cycle.clear();
        }
    }

    /// Takes `base`'s allow rows, dead channels and kept cycle without
    /// allocating (both relations are of one skeleton).
    pub(crate) fn copy_from(&mut self, base: &Relation) {
        self.allow.clone_from(&base.allow);
        self.dead.clone_from(&base.dead);
        self.cycle.clone_from(&base.cycle);
    }

    /// How many verdicts took a search ([`Skeleton::find_cycle`]).
    pub(crate) fn searches(&self) -> u64 {
        self.searches
    }
}

/// The dependency graph of a [`Relation`], read off the skeleton edge by
/// edge: candidates are the channels leaving a link's head node.
struct Dependencies<'a> {
    skeleton: &'a Skeleton,
    words: usize,
    allow: &'a [u64],
    dead: &'a [u64],
    reach: &'a mut [u64],
}

impl Successors for Dependencies<'_> {
    fn open(&mut self, u: u32) -> Range<u32> {
        // A dead channel is a leaf: it may be reached, and nothing
        // follows from it, so no cycle passes through it.
        if bitrow::get(self.dead, u as usize) {
            return 0..0;
        }
        // As in `fill`: the union of the matched classes' allow rows.
        let reach = &mut self.reach[u as usize * self.words..][..self.words];
        reach.fill(0);
        for c in self.skeleton.classes_of(u as usize) {
            for (r, x) in reach.iter_mut().zip(&self.allow[c * self.words..]) {
                *r |= x;
            }
        }
        self.skeleton
            .node_channels(self.skeleton.channels[u as usize].to)
    }

    fn successor(&self, u: u32, at: u32) -> Option<u32> {
        let reach = &self.reach[u as usize * self.words..];
        let classes = &self.skeleton.class_mask[at as usize * self.words..][..self.words];
        bitrow::intersects(reach, classes).then_some(at)
    }
}

impl Skeleton {
    /// Enumerates every concrete channel of `topo` (`vcs[d]` virtual
    /// channels along dimension `d`), decoding each node's coordinates
    /// once, and matches the channels against `universe`.
    ///
    /// # Panics
    ///
    /// Panics if `vcs.len()` differs from the topology's dimension count.
    pub fn new(topo: &Topology, vcs: &[u8], universe: &[Channel]) -> Skeleton {
        assert_eq!(vcs.len(), topo.dims(), "one VC count per dimension");
        let words = bitrow::words_for(universe.len());
        let nodes = topo.node_count();
        let mut channels = Vec::new();
        let mut node_start = Vec::with_capacity(nodes + 1);
        let mut class_mask = Vec::new();
        let mut coords = vec![0i64; topo.dims()];
        for from in 0..nodes {
            node_start.push(channels.len() as u32);
            topo.coords_into(from, &mut coords);
            for (d, &vcs_along) in vcs.iter().enumerate() {
                let dim = Dimension::new(d as u8);
                for dir in [Direction::Plus, Direction::Minus] {
                    let Some(to) = topo.neighbor_from(from, &coords, dim, dir) else {
                        continue;
                    };
                    for vc in 1..=vcs_along {
                        channels.push(ConcreteChannel {
                            from,
                            to,
                            dim,
                            dir,
                            vc,
                        });
                        let row = class_mask.len();
                        class_mask.resize(row + words, 0);
                        for (ci, cl) in universe.iter().enumerate() {
                            if cl.dim == dim
                                && cl.dir == dir
                                && cl.vc == vc
                                && cl.class.contains(&coords)
                            {
                                bitrow::set(&mut class_mask[row..], ci);
                            }
                        }
                    }
                }
            }
        }
        node_start.push(channels.len() as u32);
        let pairs = channels
            .iter()
            .map(|c| (node_start[c.to + 1] - node_start[c.to]) as usize)
            .sum();
        Skeleton {
            channels,
            node_start,
            universe: universe.to_vec(),
            class_mask,
            pairs,
        }
    }

    /// The concrete channels, in graph-node order.
    pub fn channels(&self) -> &[ConcreteChannel] {
        &self.channels
    }

    /// The class universe the channels are matched against.
    pub(crate) fn universe(&self) -> &[Channel] {
        &self.universe
    }

    /// Indices of the channels leaving `node`.
    pub(crate) fn node_channels(&self, node: NodeId) -> Range<u32> {
        self.node_start[node]..self.node_start[node + 1]
    }

    fn class_row(&self, channel: usize) -> &[u64] {
        let words = bitrow::words_for(self.universe.len());
        &self.class_mask[channel * words..][..words]
    }

    /// Universe indices of the classes `channel` matches, ascending.
    pub(crate) fn classes_of(&self, channel: usize) -> impl Iterator<Item = usize> + '_ {
        bitrow::ones(self.class_row(channel))
    }

    /// The dependency edges `turns` induces: `a -> b` when the links are
    /// adjacent (`a.to == b.from`) and the turn set allows some matched
    /// class of `a` to continue on some matched class of `b`
    /// (straight-through on the same class is always allowed). Channels
    /// matching no class are unused by the routing function and get no
    /// edges.
    ///
    /// The class relation becomes one bit row per class, each channel's
    /// `reach` is the union of its classes' rows, and a dependency is
    /// `reach(a) & classes(b) != 0`.
    pub fn fill(&self, turns: &TurnSet) -> Csr {
        let classes = self.universe.len();
        let words = bitrow::words_for(classes);
        ROWS.with(|rows| {
            let rows = &mut *rows.borrow_mut();
            bitrow::allow_rows(&self.universe, turns, rows);
            rows.resize((classes + 1) * words, 0);
            let (allow, reach) = rows.split_at_mut(classes * words);
            self.assemble(|a, group, col| {
                reach.fill(0);
                for c in self.classes_of(a) {
                    for (r, x) in reach.iter_mut().zip(&allow[c * words..]) {
                        *r |= x;
                    }
                }
                col.extend(
                    group.filter(|&b| bitrow::intersects(reach, self.class_row(b as usize))),
                );
            })
        })
    }

    /// The relation `turns` induces over this skeleton's universe.
    pub fn relation(&self, turns: &TurnSet) -> Relation {
        let words = bitrow::words_for(self.universe.len());
        let mut allow = Vec::new();
        bitrow::allow_rows(&self.universe, turns, &mut allow);
        Relation {
            words,
            allow,
            dead: vec![0; bitrow::words_for(self.channels.len())],
            reach: vec![0; self.channels.len() * words],
            // Room for the longest cycle there can be: no verdict allocates.
            cycle: Vec::with_capacity(self.channels.len()),
            searches: 0,
        }
    }

    /// Dally's verdict for `relation` without materialising its graph.
    /// A cyclic verdict keeps its cycle, and the next one — the relation
    /// edited in between — first re-validates every edge of that cycle:
    /// a walk that changes a turn or two at a time decides most of its
    /// models that way. Each verdict is still a cycle of the relation's
    /// own graph or a full search of it.
    pub fn is_acyclic(&self, relation: &mut Relation) -> bool {
        let cycle = &relation.cycle;
        let depends = |i: usize| {
            let row = self.class_row(cycle[(i + 1) % cycle.len()] as usize);
            self.classes_of(cycle[i] as usize)
                .any(|c| bitrow::intersects(&relation.allow[c * relation.words..], row))
        };
        let holds = !cycle.is_empty() && (0..cycle.len()).all(depends);
        !holds && self.find_cycle(relation).is_none()
    }

    /// A fresh search for `relation`: [`crate::csr::find_cycle`]'s, over
    /// the candidate ranges in the ascending order [`Skeleton::fill`]
    /// would lay the rows out, so the cycle (as channel indices) is the
    /// one `find_cycle` reports on the filled CSR.
    pub fn find_cycle<'r>(&self, relation: &'r mut Relation) -> Option<&'r [u32]> {
        let n = self.channels.len();
        let mut view = Dependencies {
            skeleton: self,
            words: relation.words,
            allow: &relation.allow,
            dead: &relation.dead,
            reach: &mut relation.reach,
        };
        relation.searches += 1;
        csr::search(&mut view, n, &mut relation.cycle);
        (!relation.cycle.is_empty()).then_some(&relation.cycle)
    }

    /// The one row-assembly loop behind every build. For channel `a`,
    /// `successors(a, group, col)` appends to `col`, ascending, the
    /// members of `group` (the channels leaving `a`'s head node) that
    /// `a` depends on — groups ascend, so rows do: the documented
    /// edge-order invariant.
    fn assemble(&self, mut successors: impl FnMut(usize, Range<u32>, &mut Vec<u32>)) -> Csr {
        let _p = ebda_obs::prof::phase("cdg/csr_build");
        let n = self.channels.len();
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0u32);
        let mut col: Vec<u32> = Vec::with_capacity(self.pairs);
        for (ai, a) in self.channels.iter().enumerate() {
            successors(ai, self.node_channels(a.to), &mut col);
            row_start.push(col.len() as u32);
        }
        let edge_count = col.len();
        ebda_obs::prof::work("cdg/csr_build", "nodes", n as u64);
        ebda_obs::prof::work("cdg/csr_build", "edges", edge_count as u64);
        Csr::new(n, row_start, col)
    }
}

impl Cdg {
    /// Enumerates every concrete channel of `topo` given per-dimension VC
    /// counts (`vcs[d]` virtual channels along dimension `d`).
    ///
    /// # Panics
    ///
    /// Panics if `vcs.len()` differs from the topology's dimension count.
    pub fn channels_of(topo: &Topology, vcs: &[u8]) -> Vec<ConcreteChannel> {
        Skeleton::new(topo, vcs, &[]).channels
    }

    /// Builds the CDG induced by a class-level turn set: one
    /// [`Skeleton`], one [`Skeleton::fill`] (which states the dependency
    /// rule).
    ///
    /// `universe` is the design's channel-class universe; concrete channels
    /// matching no class are unused by the routing function and get no
    /// edges.
    pub fn from_turn_set(
        topo: &Topology,
        vcs: &[u8],
        universe: &[Channel],
        turns: &TurnSet,
    ) -> Cdg {
        let skeleton = Skeleton::new(topo, vcs, universe);
        let csr = skeleton.fill(turns);
        Cdg {
            channels: skeleton.channels,
            csr,
        }
    }

    /// Builds the CDG from an arbitrary dependency rule over adjacent
    /// concrete channels. `rule(a, b)` is consulted only when
    /// `a.to == b.from` and `a` does not immediately re-enter its own link
    /// reversed (that degenerate hairpin is included — routing rules decide).
    pub fn from_rule<F>(topo: &Topology, vcs: &[u8], rule: F) -> Cdg
    where
        F: Fn(ConcreteChannel, ConcreteChannel) -> bool,
    {
        let skeleton = Skeleton::new(topo, vcs, &[]);
        let chans = &skeleton.channels;
        let csr = skeleton.assemble(|a, group, col| {
            col.extend(group.filter(|&b| rule(chans[a], chans[b as usize])));
        });
        Cdg {
            channels: skeleton.channels,
            csr,
        }
    }

    /// The concrete channels (graph nodes).
    pub fn channels(&self) -> &[ConcreteChannel] {
        &self.channels
    }

    /// The flat CSR adjacency backing this graph.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Number of graph nodes.
    pub fn node_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// Successors of channel `i`, ascending.
    pub fn successors(&self, i: usize) -> &[u32] {
        self.csr.row(i)
    }

    /// Finds a dependency cycle, or `None` when the graph is acyclic —
    /// Dally's criterion. [`crate::csr::find_cycle`] over the shared CSR
    /// with the thread-local scratch buffer (no per-call allocation
    /// beyond the witness itself).
    pub fn find_cycle(&self) -> Option<Vec<ConcreteChannel>> {
        crate::csr::find_cycle(&self.csr).map(|idxs| {
            idxs.into_iter()
                .map(|i| self.channels[i as usize])
                .collect()
        })
    }

    /// Returns `true` when the dependency graph has no cycle.
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// A deterministic topological order of the concrete channels, or
    /// `None` when the graph is cyclic. Among ready nodes the lowest
    /// channel index goes first, so the order is byte-stable across runs.
    ///
    /// This is Dally's numbering argument made explicit: the returned
    /// list is a *channel-ordering certificate* — every dependency edge
    /// points from an earlier entry to a later one, which anyone can
    /// re-check without rebuilding the graph.
    pub fn topological_order(&self) -> Option<Vec<ConcreteChannel>> {
        crate::csr::topological_order(&self.csr).map(|order| {
            order
                .into_iter()
                .map(|i| self.channels[i as usize])
                .collect()
        })
    }

    /// The class-level edge labels present in the graph, deduplicated
    /// and sorted: `"X1+>Y1+"` records that some concrete `X1+` channel
    /// depends on some concrete `Y1+` channel. This is what the
    /// coverage subsystem records as the `cdg_edge` family — class
    /// granularity keeps maps comparable across topology sizes.
    pub fn class_edges(&self) -> Vec<String> {
        // A graph has a handful of distinct `(dim, vc, dir)` classes:
        // deduplicate on their index pairs, format only the distinct ones.
        let mut reps: Vec<ConcreteChannel> = Vec::new();
        let class_of: Vec<usize> = self
            .channels
            .iter()
            .map(|c| {
                let same = |r: &ConcreteChannel| (r.dim, r.vc, r.dir) == (c.dim, c.vc, c.dir);
                reps.iter().position(same).unwrap_or_else(|| {
                    reps.push(*c);
                    reps.len() - 1
                })
            })
            .collect();
        let k = reps.len();
        let mut seen = vec![false; k * k];
        for (ai, &ca) in class_of.iter().enumerate() {
            for &bi in self.csr.row(ai) {
                seen[ca * k + class_of[bi as usize]] = true;
            }
        }
        let labels: Vec<String> = reps.iter().map(ConcreteChannel::class_label).collect();
        let mut out: Vec<String> = (0..k * k)
            .filter(|&pair| seen[pair])
            .map(|pair| [labels[pair / k].as_str(), ">", &labels[pair % k]].concat())
            .collect();
        // Distinct classes have distinct labels: nothing to deduplicate.
        out.sort();
        out
    }

    /// Renders the concrete CDG in Graphviz DOT form (one node per
    /// concrete channel, one edge per dependency). Intended for small
    /// verification topologies; the output grows with links × VCs.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph cdg {\n  node [shape=ellipse];\n");
        for (i, c) in self.channels.iter().enumerate() {
            let _ = writeln!(out, "  n{i} [label=\"{c}\"];");
        }
        for i in 0..self.channels.len() {
            for &j in self.csr.row(i) {
                let _ = writeln!(out, "  n{i} -> n{j};");
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_core::{extract_turns, parse_channels, PartitionSeq};

    fn design_universe(seq: &PartitionSeq) -> Vec<Channel> {
        seq.channels()
    }

    #[test]
    fn channel_enumeration_counts() {
        let topo = Topology::mesh(&[3, 3]);
        let chans = Cdg::channels_of(&topo, &[1, 1]);
        assert_eq!(chans.len(), 24);
        let chans = Cdg::channels_of(&topo, &[2, 1]);
        assert_eq!(chans.len(), 36); // 12 X-links doubled + 12 Y-links
    }

    #[test]
    fn all_turns_allowed_is_cyclic() {
        // The unrestricted network: every turn allowed => cyclic CDG.
        let topo = Topology::mesh(&[3, 3]);
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let mut turns = TurnSet::new();
        for &a in &universe {
            for &b in &universe {
                if a != b {
                    turns.insert(ebda_core::Turn::new(a, b));
                }
            }
        }
        let cdg = Cdg::from_turn_set(&topo, &[1, 1], &universe, &turns);
        assert!(!cdg.is_acyclic());
        let cycle = cdg.find_cycle().unwrap();
        assert!(cycle.len() >= 2);
    }

    #[test]
    fn north_last_is_acyclic_on_meshes() {
        let seq = PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let universe = design_universe(&seq);
        for radix in [3usize, 4, 6] {
            let topo = Topology::mesh(&[radix, radix]);
            let cdg = Cdg::from_turn_set(&topo, &[1, 1], &universe, ex.turn_set());
            assert!(
                cdg.is_acyclic(),
                "north-last must be acyclic on {radix}x{radix}"
            );
        }
    }

    #[test]
    fn straight_rings_deadlock_on_torus_but_not_mesh() {
        // Even with *no* turns allowed, torus wraparound closes a ring.
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let turns = TurnSet::new();
        let mesh = Cdg::from_turn_set(&Topology::mesh(&[4, 4]), &[1, 1], &universe, &turns);
        assert!(mesh.is_acyclic());
        let torus = Cdg::from_turn_set(&Topology::torus(&[4, 4]), &[1, 1], &universe, &turns);
        assert!(!torus.is_acyclic());
    }

    #[test]
    fn parity_classes_bind_to_source_column() {
        // Odd-Even: acyclic on meshes of both parities.
        let seq = ebda_core::catalog::odd_even();
        let ex = extract_turns(&seq).unwrap();
        let universe = design_universe(&seq);
        for radix in [4usize, 5] {
            let topo = Topology::mesh(&[radix, radix]);
            let cdg = Cdg::from_turn_set(&topo, &[1, 1], &universe, ex.turn_set());
            assert!(
                cdg.is_acyclic(),
                "odd-even must be acyclic on {radix}x{radix}"
            );
        }
    }

    #[test]
    fn dot_export_counts_nodes_and_edges() {
        let seq = PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let topo = Topology::mesh(&[3, 3]);
        let cdg = Cdg::from_turn_set(&topo, &[1, 1], &design_universe(&seq), ex.turn_set());
        let dot = cdg.to_dot();
        assert!(dot.starts_with("digraph cdg"));
        assert_eq!(dot.matches("label=").count(), cdg.node_count());
        assert_eq!(dot.matches(" -> ").count(), cdg.edge_count());
    }

    #[test]
    fn class_edges_are_sorted_deduplicated_class_labels() {
        let seq = PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let topo = Topology::mesh(&[3, 3]);
        let cdg = Cdg::from_turn_set(&topo, &[1, 1], &design_universe(&seq), ex.turn_set());
        let edges = cdg.class_edges();
        assert!(!edges.is_empty());
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "labels sorted and deduplicated: {edges:?}"
        );
        // Straight-through along X+ exists on any 3x3 mesh route set
        // that allows X+ at all.
        assert!(edges.contains(&"X1+>X1+".to_string()), "{edges:?}");
        // Class labels carry no node coordinates.
        assert!(edges.iter().all(|e| !e.contains('(')), "{edges:?}");
    }

    #[test]
    fn edge_order_invariant_rows_ascend() {
        // The documented invariant: every adjacency row ascends (build
        // enumerates successors in channel order, no sort involved).
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let mut turns = TurnSet::new();
        for &a in &universe {
            for &b in &universe {
                if a != b {
                    turns.insert(ebda_core::Turn::new(a, b));
                }
            }
        }
        for topo in [Topology::mesh(&[4, 4]), Topology::torus(&[4, 4])] {
            let cdg = Cdg::from_turn_set(&topo, &[1, 1], &universe, &turns);
            assert!(cdg.edge_count() > 0);
            for i in 0..cdg.node_count() {
                let row = cdg.successors(i);
                assert!(row.windows(2).all(|w| w[0] < w[1]), "row {i}: {row:?}");
            }
        }
    }

    #[test]
    fn from_rule_matches_manual_edges() {
        let topo = Topology::mesh(&[2, 2]);
        // Rule: only straight-through along X+.
        let cdg = Cdg::from_rule(&topo, &[1, 1], |a, b| {
            a.dim == Dimension::X
                && b.dim == Dimension::X
                && a.dir == Direction::Plus
                && b.dir == Direction::Plus
        });
        assert!(cdg.is_acyclic());
        // On a 2x2 mesh no X+ chain of length 2 exists: zero edges.
        assert_eq!(cdg.edge_count(), 0);
    }
}
