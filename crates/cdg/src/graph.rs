//! The channel dependency graph (CDG) of Dally & Seitz, instantiated on a
//! concrete topology.
//!
//! Nodes are *concrete channels* — one per (directed link, virtual channel).
//! An edge `a → b` means a packet holding `a` may request `b` next; Dally's
//! criterion says the network is deadlock-free iff this graph is acyclic.

use crate::bitrow;
use crate::csr::{self, Csr, Successors};
use crate::topology::{NodeId, Topology};
use crate::walk::{ClassBuckets, Walk};
use ebda_core::{Channel, ChannelClass, Dimension, Direction, TurnSet};
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
    pub(crate) fn class_label(&self) -> String {
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
/// by-source-node groups and each channel's **kind**. A caller that
/// checks several turn sets over one network builds this once and, per
/// turn set, either calls [`Skeleton::fill`] for the graph or keeps a
/// [`Relation`] and asks [`Skeleton::is_acyclic`] for the verdict alone
/// (the turn-model enumerations, the incremental verifier).
///
/// A concrete channel *matches* a channel class when dimension,
/// direction and VC agree and the class's coordinate restriction holds
/// at the link's source node. Two channels are of one kind when they
/// agree in dimension, direction and VC and match the same universe
/// entries: no dependency rule over classes can tell them apart. A
/// network has few kinds — four on an XY mesh, about a dozen on the
/// dateline torus — however many channels it has.
#[derive(Debug, Clone)]
pub struct Skeleton {
    channels: Vec<ConcreteChannel>,
    /// Channels are enumerated node-major, so those leaving node `n`
    /// are exactly `node_start[n]..node_start[n + 1]`.
    node_start: Vec<u32>,
    universe: Vec<Channel>,
    /// Per channel, its kind: a row of `kind_mask`. As wide as a channel
    /// index, so there is no network whose kinds it cannot number.
    kind: Vec<u32>,
    /// One [`bitrow`] per kind over `universe`: the classes its channels
    /// match.
    kind_mask: Vec<u64>,
    kinds: usize,
    /// The most channels that leave one node: a row's length bound.
    fanout: usize,
}

thread_local! {
    /// The allow rows, one reach row and the kind table of
    /// [`Skeleton::fill`], recycled so that a fill allocates only the
    /// CSR arrays it returns.
    static ROWS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A class relation over a [`Skeleton`]'s universe — the allow rows
/// [`Skeleton::fill`] derives from a turn set, editable one class pair
/// at a time — with what one verdict after another on that skeleton
/// shares: the kind table of the search and the last cycle found.
#[derive(Debug, Clone)]
pub struct Relation {
    words: usize,
    /// Entry `j` of row `i`: `universe[i] -> universe[j]` is allowed.
    allow: Vec<u64>,
    /// Scratch for [`Skeleton::table_row`].
    reach: Vec<u64>,
    /// The rows of the kind table of `allow` the running search has
    /// computed — one [`bitrow`] over the kinds per kind — and which
    /// ones those are.
    table: Vec<u64>,
    ready: Vec<u64>,
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

    /// Takes `base`'s allow rows and kept cycle without
    /// allocating (both relations are of one skeleton).
    pub(crate) fn copy_from(&mut self, base: &Relation) {
        self.allow.clone_from(&base.allow);
        self.cycle.clone_from(&base.cycle);
    }

    /// How many verdicts took a search ([`Skeleton::find_cycle`]).
    pub(crate) fn searches(&self) -> u64 {
        self.searches
    }
}

/// The dependency graph of a [`Relation`], read off the skeleton edge by
/// edge: candidates are the channels leaving a link's head node, and a
/// candidate is an edge when the kind table says so. A row of the table
/// is computed when the search first reaches a channel of its kind.
struct Dependencies<'a> {
    skeleton: &'a Skeleton,
    allow: &'a [u64],
    reach: &'a mut [u64],
    table: &'a mut [u64],
    ready: &'a mut [u64],
}

impl Successors for Dependencies<'_> {
    fn open(&mut self, u: u32) -> Range<u32> {
        let kind = self.skeleton.kind[u as usize] as usize;
        if !bitrow::get(self.ready, kind) {
            bitrow::set(self.ready, kind);
            let words = self.ready.len();
            let row = &mut self.table[kind * words..][..words];
            self.skeleton.table_row(self.allow, kind, self.reach, row);
        }
        self.skeleton
            .node_channels(self.skeleton.channels[u as usize].to)
    }

    fn successor(&self, u: u32, at: u32) -> Option<u32> {
        let kind = |channel: u32| self.skeleton.kind[channel as usize] as usize;
        let words = self.ready.len();
        let row = &self.table[kind(u) * words..][..words];
        bitrow::get(row, kind(at)).then_some(at)
    }
}

const NO_KIND: u32 = u32::MAX;

/// The kinds met so far while a skeleton's channels are enumerated.
/// A kind belongs to one link kind `(dim, dir, vc)`, so each link kind
/// keeps a chain of its own, newest first: interning never searches the
/// kinds of the whole network.
struct Kinds {
    /// One row per kind: [`Skeleton::kind_mask`] in the making.
    mask: Vec<u64>,
    /// Per kind, the kind of its link kind interned before it.
    older: Vec<u32>,
    /// Per link kind, the kind interned last.
    newest: Vec<u32>,
}

impl Kinds {
    /// The kind of a channel of `link_kind` that matches the classes in
    /// `row`.
    fn intern(&mut self, link_kind: usize, row: &[u64]) -> u32 {
        let is = |kind: u32| self.mask[kind as usize * row.len()..][..row.len()] == *row;
        let mut kind = self.newest[link_kind];
        while kind != NO_KIND && !is(kind) {
            kind = self.older[kind as usize];
        }
        if kind == NO_KIND {
            // At most one kind per channel, and channels are `u32`s too.
            assert!(self.older.len() < NO_KIND as usize, "kind index overflow");
            kind = self.older.len() as u32;
            self.mask.extend_from_slice(row);
            self.older.push(self.newest[link_kind]);
            self.newest[link_kind] = kind;
        }
        kind
    }
}

impl Skeleton {
    /// Enumerates every concrete channel of `topo` (`vcs[d]` virtual
    /// channels along dimension `d`) in one walk over the nodes and
    /// interns each one's kind, matching it only against the universe
    /// entries of its own dimension, direction and VC.
    ///
    /// # Panics
    ///
    /// Panics if `vcs.len()` differs from the topology's dimension count.
    pub fn new(topo: &Topology, vcs: &[u8], universe: &[Channel]) -> Skeleton {
        assert_eq!(vcs.len(), topo.dims(), "one VC count per dimension");
        let words = bitrow::words_for(universe.len());
        let nodes = topo.node_count();
        // Link kinds `(dim, dir, vc)` number in the order a node's
        // channels are enumerated: dimension, then direction, then VC.
        let mut first = Vec::with_capacity(vcs.len());
        let mut link_kinds = 0;
        for &v in vcs {
            first.push(link_kinds);
            link_kinds += 2 * v as usize;
        }
        let link_kind_of = |cl: &Channel| {
            let v = *vcs.get(cl.dim.index())?;
            let above = usize::from(cl.dir == Direction::Minus) * v as usize;
            (1..=v)
                .contains(&cl.vc)
                .then(|| first[cl.dim.index()] + above + cl.vc as usize - 1)
        };
        let classes = ClassBuckets::new(universe, link_kinds, link_kind_of);
        // The classes whose answer depends on the node, with their link
        // kind and the answer at the node before.
        let mut restricted: Vec<(usize, usize, bool)> = universe
            .iter()
            .enumerate()
            .filter(|(_, cl)| cl.class != ChannelClass::All)
            .filter_map(|(class, cl)| Some((class, link_kind_of(cl)?, false)))
            .collect();

        // Sized before they are filled: no array grows, whatever the
        // topology leaves out (mesh edges, missing columns, failed links).
        let mut channels = Vec::with_capacity(nodes * link_kinds);
        let mut kind = Vec::with_capacity(nodes * link_kinds);
        let mut node_start = Vec::with_capacity(nodes + 1);
        // A first guess of one kind per link kind: unrestricted classes.
        let mut kinds = Kinds {
            mask: Vec::with_capacity(link_kinds * words),
            older: Vec::with_capacity(link_kinds),
            newest: vec![NO_KIND; link_kinds],
        };
        // Per link kind, the kind of its channels for as long as none of
        // its restricted classes changes its answer: along a line of a
        // regular network, nearly always.
        let mut current = vec![NO_KIND; link_kinds];
        let mut row = vec![0u64; words];
        let mut walk = Walk::new(topo);
        loop {
            node_start.push(channels.len() as u32);
            let from = walk.node();
            for (class, link_kind, held) in &mut restricted {
                let holds = universe[*class].class.contains(walk.coords());
                if holds != *held {
                    *held = holds;
                    current[*link_kind] = NO_KIND;
                }
            }
            for (d, &vcs_along) in vcs.iter().enumerate() {
                let dim = Dimension::new(d as u8);
                let links = [
                    (first[d], Direction::Plus),
                    (first[d] + vcs_along as usize, Direction::Minus),
                ];
                for (link_kind, dir) in links {
                    let Some(to) = walk.neighbor(d, dir) else {
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
                        let link_kind = link_kind + vc as usize - 1;
                        if current[link_kind] == NO_KIND {
                            row.fill(0);
                            for class in classes.matched(link_kind, walk.coords()) {
                                bitrow::set(&mut row, class);
                            }
                            current[link_kind] = kinds.intern(link_kind, &row);
                        }
                        kind.push(current[link_kind]);
                    }
                }
            }
            if !walk.advance() {
                break;
            }
        }
        node_start.push(channels.len() as u32);
        Skeleton {
            channels,
            node_start,
            universe: universe.to_vec(),
            kind,
            kinds: kinds.older.len(),
            kind_mask: kinds.mask,
            fanout: link_kinds,
        }
    }

    /// The concrete channels, in graph-node order.
    pub fn channels(&self) -> &[ConcreteChannel] {
        &self.channels
    }

    /// How many kinds of channel the network has.
    pub fn kinds(&self) -> usize {
        self.kinds
    }

    /// The class universe the channels are matched against.
    pub(crate) fn universe(&self) -> &[Channel] {
        &self.universe
    }

    /// Indices of the channels leaving `node`.
    fn node_channels(&self, node: NodeId) -> Range<u32> {
        self.node_start[node]..self.node_start[node + 1]
    }

    /// The classes the channels of `kind` match, as a row over the universe.
    fn mask(&self, kind: usize) -> &[u64] {
        let words = bitrow::words_for(self.universe.len());
        &self.kind_mask[kind * words..][..words]
    }

    /// Row `ka` of the kind table of the class relation `allow`, written
    /// into `row`: entry `kb` says whether a channel of kind `ka` depends
    /// on an adjacent channel of kind `kb`. The dependency rule in kind
    /// terms: `reach(ka)` — the union of the allow rows of the classes
    /// kind `ka` matches, built in `reach` — shares an entry with
    /// `mask(kb)`.
    fn table_row(&self, allow: &[u64], ka: usize, reach: &mut [u64], row: &mut [u64]) {
        let words = reach.len();
        reach.fill(0);
        for c in bitrow::ones(self.mask(ka)) {
            for (r, x) in reach.iter_mut().zip(&allow[c * words..]) {
                *r |= x;
            }
        }
        row.fill(0);
        for kb in 0..self.kinds {
            if bitrow::intersects(reach, self.mask(kb)) {
                bitrow::set(row, kb);
            }
        }
    }

    /// The dependency edges `turns` induces: `a -> b` when the links are
    /// adjacent (`a.to == b.from`) and the turn set allows some matched
    /// class of `a` to continue on some matched class of `b`
    /// (straight-through on the same class is always allowed). Channels
    /// matching no class are unused by the routing function and get no
    /// edges.
    ///
    /// The rule is evaluated once per pair of kinds, not of channels:
    /// the class relation becomes one bit row per class, `reach(ka)` is
    /// the union of the rows of the classes kind `ka` matches, and entry
    /// `kb` of row `ka` of the kind table is `reach(ka) & mask(kb) != 0`.
    /// A CSR row is then one table lookup per channel leaving the head
    /// node: `O(channels + pairs + kinds² · words)` for a universe of any
    /// width.
    pub fn fill(&self, turns: &TurnSet) -> Csr {
        let _p = ebda_obs::prof::phase("cdg/csr_build");
        let classes = self.universe.len();
        let words = bitrow::words_for(classes);
        let table_words = bitrow::words_for(self.kinds);
        ROWS.with(|rows| {
            let rows = &mut *rows.borrow_mut();
            bitrow::allow_rows(&self.universe, turns, false, rows);
            rows.resize((classes + 1) * words + self.kinds * table_words, 0);
            let (allow, rest) = rows.split_at_mut(classes * words);
            let (reach, table) = rest.split_at_mut(words);
            for ka in 0..self.kinds {
                let row = &mut table[ka * table_words..][..table_words];
                self.table_row(allow, ka, reach, row);
            }
            self.assemble(|a, group, col| {
                let depends = &table[self.kind[a] as usize * table_words..][..table_words];
                let kinds = &self.kind[group.start as usize..group.end as usize];
                for (b, &kb) in group.zip(kinds) {
                    if bitrow::get(depends, kb as usize) {
                        col.push(b);
                    }
                }
            })
        })
    }

    /// The relation `turns` induces over this skeleton's universe.
    pub fn relation(&self, turns: &TurnSet) -> Relation {
        let words = bitrow::words_for(self.universe.len());
        let mut allow = Vec::new();
        bitrow::allow_rows(&self.universe, turns, false, &mut allow);
        Relation {
            words,
            allow,
            reach: vec![0; words],
            table: vec![0; self.kinds * bitrow::words_for(self.kinds)],
            ready: vec![0; bitrow::words_for(self.kinds)],
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
        // One table entry per edge of the cycle, computed on its own.
        let depends = |i: usize| {
            let kind = |at: usize| self.kind[cycle[at % cycle.len()] as usize] as usize;
            bitrow::ones(self.mask(kind(i))).any(|c| {
                bitrow::intersects(
                    &relation.allow[c * relation.words..],
                    self.mask(kind(i + 1)),
                )
            })
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
        relation.ready.fill(0);
        let mut view = Dependencies {
            skeleton: self,
            allow: &relation.allow,
            reach: &mut relation.reach,
            table: &mut relation.table,
            ready: &mut relation.ready,
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
        let n = self.channels.len();
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0u32);
        let mut col: Vec<u32> = Vec::with_capacity(n * self.fanout);
        for (ai, a) in self.channels.iter().enumerate() {
            successors(ai, self.node_channels(a.to), &mut col);
            row_start.push(col.len() as u32);
        }
        let edge_count = col.len();
        ebda_obs::prof::work("cdg/csr_build", "nodes", n as u64);
        ebda_obs::prof::work("cdg/csr_build", "kinds", self.kinds as u64);
        ebda_obs::prof::work("cdg/csr_build", "edges", edge_count as u64);
        Csr::new(n, row_start, col)
    }
}

impl Cdg {
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
        let _p = ebda_obs::prof::phase("cdg/csr_build");
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
        let chans = |vcs: &[u8]| Skeleton::new(&topo, vcs, &[]).channels().len();
        assert_eq!(chans(&[1, 1]), 24);
        assert_eq!(chans(&[2, 1]), 36); // 12 X-links doubled + 12 Y-links
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
