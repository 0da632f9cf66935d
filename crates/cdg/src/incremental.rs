//! Incremental re-verification: dirty-SCC rechecks instead of full CDG
//! rebuilds.
//!
//! The design loop the paper motivates — enumerate, verify, fix — edits
//! a design one turn, one channel class, or one link at a time, yet
//! every verification query used to rebuild the whole channel
//! dependency graph. An [`IncrementalVerifier`] keeps the CDG of a base
//! design as a shared [`Csr`] plus its Tarjan SCC structure, and
//! answers *what-if* queries by work proportional to the dirty region:
//!
//! 1. **Delta edge set.** A removed turn or channel class can only
//!    delete edges incident to concrete channels matching the touched
//!    class; those candidate slots are re-evaluated under the edited
//!    rule and collected into an [`EdgeMask`].
//! 2. **Affected SCCs.** Removing edges from an acyclic graph keeps it
//!    acyclic (zero work). On a cyclic base, any cycle of the reduced
//!    graph lies inside one strongly connected component of the base —
//!    so a cyclic SCC that lost no internal edge stays cyclic
//!    (early-exit), and only touched cyclic SCCs need rechecking.
//! 3. **Localized recheck.** Each touched cyclic SCC is re-searched in
//!    isolation over the masked CSR ([`crate::csr::has_cycle_within`]).
//!
//! Additions are the mirror image: a cyclic base stays cyclic, and an
//! acyclic base gains a cycle iff some added edge `u -> v` has `u`
//! reachable from `v`. A link failure falls back to a full rebuild
//! (counted under `incr:fallbacks`) for the *apply* path, while the
//! fail-link *query* is still answered incrementally by masking all
//! edges incident to the dead channels.
//!
//! Queries take `&self` and are safe to issue from several threads. A
//! turn commit (`apply_add_turn`, `apply_remove_turn`) edits the base
//! relation's allow rows and takes its verdict straight off the
//! skeleton ([`Skeleton::is_acyclic`]) — nothing at all in the two
//! monotone cases; the CSR, predecessor lists and SCCs that only
//! queries read are filled again by the first query after it. In
//! cross-check mode (`EBDA_INCR_CHECK=1` or
//! [`IncrementalVerifier::set_cross_check`]) every query and commit is
//! asserted against a full rebuild, rows included.

use crate::csr::{self, Csr, EdgeMask, SccInfo};
use crate::graph::{Cdg, ConcreteChannel, Relation, Skeleton};
use crate::topology::{NodeId, Topology};
use ebda_core::{Channel, Dimension, Direction, Turn, TurnSet};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Edges a turn addition creates: the flat `(source, target)` delta
/// list plus the per-source successor overlay used by the reachability
/// probe before the edges exist in the CSR.
type GainedEdges = (Vec<(u32, u32)>, BTreeMap<u32, Vec<u32>>);

/// The base CDG as the queries read it: the rows [`Skeleton::fill`]
/// gives, their transpose and their SCCs.
#[derive(Debug, Clone)]
struct Graph {
    csr: Csr,
    /// Predecessor lists per node, ascending.
    rev: Vec<Vec<u32>>,
    scc: SccInfo,
}

impl Graph {
    fn of(skeleton: &Skeleton, turns: &TurnSet) -> Graph {
        let csr = skeleton.fill(turns);
        let mut rev = vec![Vec::new(); csr.node_count()];
        for u in 0..csr.node_count() {
            for &v in csr.row(u) {
                rev[v as usize].push(u as u32);
            }
        }
        let scc = csr::tarjan(&csr);
        Graph { csr, rev, scc }
    }
}

/// Incremental Dally verifier over one base design.
///
/// Holds the base `(topology, vcs, universe, turns)` plus the derived
/// CDG in CSR form and its SCC structure. Query methods answer "would
/// this one-step edit leave the CDG acyclic?" without mutating the
/// base; apply methods commit the edit.
#[derive(Debug, Clone)]
pub struct IncrementalVerifier {
    topo: Topology,
    vcs: Vec<u8>,
    universe: Vec<Channel>,
    turns: TurnSet,
    /// The base's channels, by-source-node groups and class matches —
    /// rebuilt only when the topology changes, never per turn edit.
    skeleton: Skeleton,
    /// `turns` as allow rows, with the cycle the last commit found.
    relation: Relation,
    /// Concrete channels matching each universe entry (the transpose of
    /// the skeleton's class matches).
    class_members: Vec<Vec<u32>>,
    /// Emptied by a turn commit, filled by the next query.
    graph: OnceLock<Graph>,
    acyclic: bool,
    check: bool,
}

impl IncrementalVerifier {
    /// Builds the verifier for a base design. Cross-check mode starts
    /// from the `EBDA_INCR_CHECK` environment variable (`1`/`on`/
    /// `true` enable it).
    pub fn new(
        topo: Topology,
        vcs: Vec<u8>,
        universe: Vec<Channel>,
        turns: TurnSet,
    ) -> IncrementalVerifier {
        let check = matches!(
            std::env::var("EBDA_INCR_CHECK").as_deref(),
            Ok("1") | Ok("on") | Ok("true")
        );
        IncrementalVerifier::build(topo, vcs, universe, turns, check)
    }

    /// One skeleton, one edge fill, then the derived indexes.
    fn build(
        topo: Topology,
        vcs: Vec<u8>,
        universe: Vec<Channel>,
        turns: TurnSet,
        check: bool,
    ) -> IncrementalVerifier {
        let skeleton = Skeleton::new(&topo, &vcs, &universe);
        let mut class_members = vec![Vec::new(); universe.len()];
        for u in 0..skeleton.channels().len() {
            for ci in skeleton.classes_of(u) {
                class_members[ci].push(u as u32);
            }
        }
        let graph = Graph::of(&skeleton, &turns);
        IncrementalVerifier {
            topo,
            vcs,
            universe,
            relation: skeleton.relation(&turns),
            turns,
            skeleton,
            class_members,
            acyclic: graph.scc.acyclic(),
            graph: OnceLock::from(graph),
            check,
        }
    }

    fn graph(&self) -> &Graph {
        self.graph
            .get_or_init(|| Graph::of(&self.skeleton, &self.turns))
    }

    /// Forces the debug cross-check mode on or off: every query and
    /// apply re-verifies against a full rebuild and panics on any
    /// divergence.
    pub fn set_cross_check(&mut self, on: bool) {
        self.check = on;
    }

    /// Whether the base design's CDG is acyclic (Dally-deadlock-free).
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }

    /// The base topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The base turn set.
    pub fn turns(&self) -> &TurnSet {
        &self.turns
    }

    /// The concrete channels of the base CDG.
    pub fn channels(&self) -> &[ConcreteChannel] {
        self.skeleton.channels()
    }

    /// A cycle witness of the base CDG, or `None` when acyclic. Walks
    /// the same CSR with the same traversal as [`Cdg::find_cycle`], so
    /// witnesses are byte-identical to the full build's.
    pub fn find_cycle(&self) -> Option<Vec<ConcreteChannel>> {
        csr::find_cycle(&self.graph().csr).map(|idxs| {
            idxs.into_iter()
                .map(|i| self.channels()[i as usize])
                .collect()
        })
    }

    /// The full-rebuild fallback: the topology changed, so the skeleton
    /// itself is stale.
    fn rebuild(&mut self) {
        *self = IncrementalVerifier::build(
            self.topo.clone(),
            std::mem::take(&mut self.vcs),
            std::mem::take(&mut self.universe),
            std::mem::take(&mut self.turns),
            self.check,
        );
    }

    /// Whether the edge `u -> v` survives once turn `t` is removed.
    /// Value-based: duplicate universe entries equal to `t.from`/`t.to`
    /// are all treated as removed-pair candidates.
    fn allowed_without_turn(&self, u: usize, v: usize, t: Turn) -> bool {
        self.skeleton.classes_of(u).any(|x| {
            let cx = self.universe[x];
            self.skeleton.classes_of(v).any(|y| {
                let cy = self.universe[y];
                if cx == cy {
                    return true;
                }
                if cx == t.from && cy == t.to {
                    return false;
                }
                self.turns.contains(Turn { from: cx, to: cy })
            })
        })
    }

    /// Whether the edge `u -> v` survives once channel class `victim`
    /// is dropped from the universe (shrinker case: turns touching the
    /// victim go with it, but a pair not touching it is unaffected).
    fn allowed_without_channel(&self, u: usize, v: usize, victim: Channel) -> bool {
        self.skeleton.classes_of(u).any(|x| {
            let cx = self.universe[x];
            cx != victim
                && self.skeleton.classes_of(v).any(|y| {
                    let cy = self.universe[y];
                    cy != victim && self.turns.allows(cx, cy)
                })
        })
    }

    /// Collects the edges that disappear when `t` is removed: only
    /// out-edges of channels matching `t.from` whose target matches
    /// `t.to` can change, and each such slot is re-evaluated under the
    /// edited rule.
    fn edges_lost_by_turn(&self, t: Turn) -> (Vec<(u32, u32)>, EdgeMask) {
        let csr = &self.graph().csr;
        let mut mask = EdgeMask::new(csr.edge_count());
        let mut removed = Vec::new();
        for ci in 0..self.universe.len() {
            if self.universe[ci] != t.from {
                continue;
            }
            for &u in &self.class_members[ci] {
                let base = csr.edge_base(u as usize);
                for (k, &v) in csr.row(u as usize).iter().enumerate() {
                    if mask.get(base + k) {
                        continue;
                    }
                    if !self
                        .skeleton
                        .classes_of(v as usize)
                        .any(|y| self.universe[y] == t.to)
                    {
                        continue;
                    }
                    if self.allowed_without_turn(u as usize, v as usize, t) {
                        continue;
                    }
                    mask.set(base + k);
                    removed.push((u, v));
                }
            }
        }
        (removed, mask)
    }

    /// Collects the edges that disappear when channel class `victim` is
    /// dropped: out- and in-edges of its member channels, re-evaluated
    /// without the victim.
    fn edges_lost_by_channel(&self, victim: Channel) -> (Vec<(u32, u32)>, EdgeMask) {
        let Graph { csr, rev, .. } = self.graph();
        let mut mask = EdgeMask::new(csr.edge_count());
        let mut removed = Vec::new();
        for ci in 0..self.universe.len() {
            if self.universe[ci] != victim {
                continue;
            }
            for &u in &self.class_members[ci] {
                let base = csr.edge_base(u as usize);
                for (k, &v) in csr.row(u as usize).iter().enumerate() {
                    if !mask.get(base + k)
                        && !self.allowed_without_channel(u as usize, v as usize, victim)
                    {
                        mask.set(base + k);
                        removed.push((u, v));
                    }
                }
                for &w in &rev[u as usize] {
                    let ei = csr
                        .edge_index(w as usize, u)
                        .expect("reverse adjacency tracks a real edge");
                    if !mask.get(ei)
                        && !self.allowed_without_channel(w as usize, u as usize, victim)
                    {
                        mask.set(ei);
                        removed.push((w, u));
                    }
                }
            }
        }
        (removed, mask)
    }

    /// The dirty-SCC verdict for an edge-removal delta on a cyclic
    /// base: a cyclic SCC that lost no internal edge stays cyclic;
    /// every touched cyclic SCC is rechecked in isolation.
    fn removal_verdict(&self, removed: &[(u32, u32)], mask: &EdgeMask) -> bool {
        let Graph { csr, scc, .. } = self.graph();
        ebda_obs::prof::work("incr", "dirty_edges", removed.len() as u64);
        let ncomp = scc.comp_nodes.len();
        let mut touched = vec![false; ncomp];
        for &(u, v) in removed {
            let cu = scc.comp_of[u as usize];
            if cu == scc.comp_of[v as usize] {
                touched[cu as usize] = true;
            }
        }
        if (0..ncomp).any(|c| scc.cyclic[c] && !touched[c]) {
            return false;
        }
        for (c, &was_touched) in touched.iter().enumerate() {
            if !(scc.cyclic[c] && was_touched) {
                continue;
            }
            ebda_obs::prof::work("incr", "scc_rechecked", 1);
            let (cyclic, visited) =
                csr::has_cycle_within(csr, &scc.comp_nodes[c], &scc.comp_of, c as u32, mask);
            ebda_obs::prof::work("incr", "edges_visited", visited);
            if cyclic {
                return false;
            }
        }
        true
    }

    /// Would the CDG be acyclic with turn `t` removed?
    pub fn query_remove_turn(&self, t: Turn) -> bool {
        ebda_obs::prof::work("incr", "queries", 1);
        let got = self.remove_turn_verdict(t);
        if self.check {
            let mut turns = TurnSet::new();
            for x in self.turns.iter().filter(|&x| x != t) {
                turns.insert(x);
            }
            let want =
                Cdg::from_turn_set(&self.topo, &self.vcs, &self.universe, &turns).is_acyclic();
            assert_eq!(got, want, "incremental remove-turn verdict diverged: {t:?}");
        }
        got
    }

    fn remove_turn_verdict(&self, t: Turn) -> bool {
        if t.from == t.to || !self.turns.contains(t) {
            return self.acyclic;
        }
        if self.acyclic {
            // Removal is monotone: an acyclic graph stays acyclic.
            return true;
        }
        let (removed, mask) = self.edges_lost_by_turn(t);
        self.removal_verdict(&removed, &mask)
    }

    /// Would the CDG be acyclic with channel class `victim` dropped
    /// from the universe (all occurrences, plus the turns touching it —
    /// the shrinker's drop-channel delta)?
    pub fn query_remove_channel(&self, victim: Channel) -> bool {
        ebda_obs::prof::work("incr", "queries", 1);
        let got = self.remove_channel_verdict(victim);
        if self.check {
            let universe: Vec<Channel> = self
                .universe
                .iter()
                .copied()
                .filter(|&c| c != victim)
                .collect();
            let mut turns = TurnSet::new();
            for x in self.turns.iter() {
                if x.from != victim && x.to != victim {
                    turns.insert(x);
                }
            }
            let want = Cdg::from_turn_set(&self.topo, &self.vcs, &universe, &turns).is_acyclic();
            assert_eq!(
                got, want,
                "incremental remove-channel verdict diverged: {victim:?}"
            );
        }
        got
    }

    fn remove_channel_verdict(&self, victim: Channel) -> bool {
        if !self.universe.contains(&victim) {
            return self.acyclic;
        }
        if self.acyclic {
            return true;
        }
        let (removed, mask) = self.edges_lost_by_channel(victim);
        self.removal_verdict(&removed, &mask)
    }

    /// Would the CDG be acyclic with the link `node --dim/dir-->`
    /// failed (both traversal directions die, as in
    /// [`Topology::with_failed_link`])?
    pub fn query_fail_link(&self, node: NodeId, dim: Dimension, dir: Direction) -> bool {
        ebda_obs::prof::work("incr", "queries", 1);
        let got = self.fail_link_verdict(node, dim, dir);
        if self.check {
            let failed = self.topo.clone().with_failed_link(node, dim, dir);
            let want =
                Cdg::from_turn_set(&failed, &self.vcs, &self.universe, &self.turns).is_acyclic();
            assert_eq!(
                got, want,
                "incremental fail-link verdict diverged: {node} {dim:?} {dir:?}"
            );
        }
        got
    }

    fn fail_link_verdict(&self, node: NodeId, dim: Dimension, dir: Direction) -> bool {
        let Some(other) = self.topo.neighbor(node, dim, dir) else {
            return self.acyclic;
        };
        let mut dead: Vec<u32> = Vec::new();
        for u in self.skeleton.node_channels(node) {
            let c = self.channels()[u as usize];
            if c.dim == dim && c.dir == dir {
                dead.push(u);
            }
        }
        for u in self.skeleton.node_channels(other) {
            let c = self.channels()[u as usize];
            if c.dim == dim && c.dir == dir.opposite() {
                dead.push(u);
            }
        }
        if dead.is_empty() {
            return self.acyclic;
        }
        if self.acyclic {
            return true;
        }
        // Masking every edge incident to a dead channel leaves the dead
        // nodes isolated — equivalent, for acyclicity, to deleting them.
        let Graph { csr, rev, .. } = self.graph();
        let mut mask = EdgeMask::new(csr.edge_count());
        let mut removed = Vec::new();
        for &u in &dead {
            let base = csr.edge_base(u as usize);
            for (k, &v) in csr.row(u as usize).iter().enumerate() {
                if mask.set(base + k) {
                    removed.push((u, v));
                }
            }
            for &w in &rev[u as usize] {
                let ei = csr
                    .edge_index(w as usize, u)
                    .expect("reverse adjacency tracks a real edge");
                if mask.set(ei) {
                    removed.push((w, u));
                }
            }
        }
        self.removal_verdict(&removed, &mask)
    }

    /// The edges that appear when turn `t` is added: candidate slots
    /// are adjacent pairs whose source matches `t.from` and target
    /// matches `t.to` that had no edge before.
    fn edges_gained_by_turn(&self, t: Turn) -> GainedEdges {
        let csr = &self.graph().csr;
        let mut added = Vec::new();
        let mut extra: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for ci in 0..self.universe.len() {
            if self.universe[ci] != t.from {
                continue;
            }
            for &u in &self.class_members[ci] {
                let c = self.channels()[u as usize];
                for v in self.skeleton.node_channels(c.to) {
                    if csr.has_edge(u as usize, v) {
                        continue;
                    }
                    if !self
                        .skeleton
                        .classes_of(v as usize)
                        .any(|y| self.universe[y] == t.to)
                    {
                        continue;
                    }
                    let succs = extra.entry(u).or_default();
                    // Duplicate universe entries revisit the same slot.
                    if succs.last() == Some(&v) || succs.contains(&v) {
                        continue;
                    }
                    succs.push(v);
                    added.push((u, v));
                }
            }
        }
        (added, extra)
    }

    /// Would the CDG be acyclic with turn `t` added? A cyclic base
    /// stays cyclic; an acyclic base gains a cycle iff some added edge
    /// `u -> v` has `u` reachable from `v` over base + added edges.
    pub fn query_add_turn(&self, t: Turn) -> bool {
        ebda_obs::prof::work("incr", "queries", 1);
        let got = self.add_turn_verdict(t);
        if self.check {
            let mut turns = self.turns.clone();
            turns.insert(t);
            let want =
                Cdg::from_turn_set(&self.topo, &self.vcs, &self.universe, &turns).is_acyclic();
            assert_eq!(got, want, "incremental add-turn verdict diverged: {t:?}");
        }
        got
    }

    fn add_turn_verdict(&self, t: Turn) -> bool {
        if t.from == t.to || self.turns.contains(t) {
            return self.acyclic;
        }
        if !self.acyclic {
            // Addition is monotone: a cyclic graph stays cyclic.
            return false;
        }
        let (added, extra) = self.edges_gained_by_turn(t);
        ebda_obs::prof::work("incr", "dirty_edges", added.len() as u64);
        if added.is_empty() {
            return true;
        }
        let csr = &self.graph().csr;
        added.iter().all(|&(u, v)| {
            let (hit, edges_visited) = csr::reaches(csr, &extra, v, u);
            ebda_obs::prof::work("incr", "edges_visited", edges_visited);
            !hit
        })
    }

    /// Commits a turn removal; returns the new verdict.
    pub fn apply_remove_turn(&mut self, t: Turn) -> bool {
        if t.from == t.to || !self.turns.contains(t) {
            return self.acyclic;
        }
        self.turns.remove(t);
        self.commit(t, false)
    }

    /// Commits a turn addition; returns the new verdict.
    pub fn apply_add_turn(&mut self, t: Turn) -> bool {
        if t.from == t.to || self.turns.contains(t) {
            return self.acyclic;
        }
        self.turns.insert(t);
        self.commit(t, true)
    }

    /// Writes the edit of `t` into the allow rows (value-based, as
    /// [`Skeleton::fill`] reads a turn set) and takes the new verdict:
    /// free when the edit is monotone — an acyclic base losing edges, a
    /// cyclic one gaining them — and otherwise one verdict on the
    /// skeleton ([`Skeleton::is_acyclic`]).
    fn commit(&mut self, t: Turn, allowed: bool) -> bool {
        let universe = &self.universe;
        let matching = |c: Channel| (0..universe.len()).filter(move |&i| universe[i] == c);
        for from in matching(t.from) {
            for to in matching(t.to) {
                self.relation.set(from, to, allowed);
            }
        }
        self.graph = OnceLock::new();
        if self.acyclic == allowed {
            self.acyclic = self.skeleton.is_acyclic(&mut self.relation);
        }
        if self.check {
            self.assert_matches_full_rebuild();
        }
        self.acyclic
    }

    /// Commits a link failure. Channel numbering changes, so this is
    /// the documented full-rebuild fallback (counted as
    /// `incr:fallbacks`); the *query* path stays incremental.
    pub fn apply_fail_link(&mut self, node: NodeId, dim: Dimension, dir: Direction) -> bool {
        ebda_obs::prof::work("incr", "fallbacks", 1);
        self.topo = self.topo.clone().with_failed_link(node, dim, dir);
        self.rebuild();
        self.acyclic
    }

    /// Cross-check-mode assertion after a commit: the verdict and the
    /// rows the next query will read must be those of a fresh full
    /// build, *row for row* (the edge-order invariant makes this
    /// comparison exact).
    fn assert_matches_full_rebuild(&self) {
        let cdg = Cdg::from_turn_set(&self.topo, &self.vcs, &self.universe, &self.turns);
        let csr = &self.graph().csr;
        assert_eq!(
            csr.node_count(),
            cdg.node_count(),
            "incremental CSR node count diverged from full rebuild"
        );
        for u in 0..csr.node_count() {
            assert_eq!(
                csr.row(u),
                cdg.successors(u),
                "incremental CSR row {u} diverged from full rebuild"
            );
        }
        assert_eq!(
            self.acyclic,
            cdg.is_acyclic(),
            "committed verdict diverged from full rebuild"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_core::parse_channels;

    fn all_turns(universe: &[Channel]) -> TurnSet {
        let mut turns = TurnSet::new();
        for &a in universe {
            for &b in universe {
                if a != b {
                    turns.insert(Turn::new(a, b));
                }
            }
        }
        turns
    }

    fn full_acyclic(topo: &Topology, universe: &[Channel], turns: &TurnSet) -> bool {
        Cdg::from_turn_set(topo, &[1, 1], universe, turns).is_acyclic()
    }

    #[test]
    fn remove_turn_queries_match_full_rebuild() {
        let topo = Topology::mesh(&[4, 4]);
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let turns = all_turns(&universe);
        let mut v =
            IncrementalVerifier::new(topo.clone(), vec![1, 1], universe.clone(), turns.clone());
        v.set_cross_check(true);
        assert!(!v.is_acyclic());
        for t in turns.iter() {
            // Cross-check mode asserts equivalence internally.
            v.query_remove_turn(t);
        }
    }

    #[test]
    fn apply_chain_drains_to_acyclic() {
        // Remove turns one at a time until the CDG goes acyclic; at
        // every step the incremental verdict must match a full rebuild
        // (and in check mode, the whole CSR must).
        let topo = Topology::mesh(&[3, 3]);
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let turns = all_turns(&universe);
        let mut v =
            IncrementalVerifier::new(topo.clone(), vec![1, 1], universe.clone(), turns.clone());
        v.set_cross_check(true);
        for t in turns.iter() {
            let got = v.apply_remove_turn(t);
            assert_eq!(got, full_acyclic(&topo, &universe, v.turns()));
        }
        assert!(v.is_acyclic(), "no turns left: straight-only mesh CDG");
        // And back up: re-adding every turn must land on the original.
        for t in turns.iter() {
            v.apply_add_turn(t);
        }
        assert!(!v.is_acyclic());
    }

    #[test]
    fn remove_channel_matches_full_rebuild() {
        let topo = Topology::mesh(&[4, 4]);
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let turns = all_turns(&universe);
        let mut v =
            IncrementalVerifier::new(topo.clone(), vec![1, 1], universe.clone(), turns.clone());
        v.set_cross_check(true);
        for &victim in &universe {
            v.query_remove_channel(victim);
        }
    }

    #[test]
    fn fail_link_query_matches_full_rebuild() {
        let topo = Topology::torus(&[4, 4]);
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        // No turns: straight rings deadlock on a torus; failing an
        // X-link on a ring breaks that ring's cycle but not the others.
        let turns = TurnSet::new();
        let mut v =
            IncrementalVerifier::new(topo.clone(), vec![1, 1], universe.clone(), turns.clone());
        v.set_cross_check(true);
        assert!(!v.is_acyclic());
        for node in 0..topo.node_count() {
            for dir in [Direction::Plus, Direction::Minus] {
                v.query_fail_link(node, Dimension::X, dir);
            }
        }
        // Applying commits via the documented full-rebuild fallback.
        let after = v.apply_fail_link(0, Dimension::X, Direction::Plus);
        let failed = topo.with_failed_link(0, Dimension::X, Direction::Plus);
        assert_eq!(after, full_acyclic(&failed, &universe, &turns));
    }

    #[test]
    fn acyclic_base_answers_removals_for_free() {
        // North-last is acyclic: every removal query must return true
        // without any dirty-edge work (monotonicity early-exit).
        let seq = ebda_core::PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
        let ex = ebda_core::extract_turns(&seq).unwrap();
        let topo = Topology::mesh(&[4, 4]);
        let mut v =
            IncrementalVerifier::new(topo, vec![1, 1], seq.channels(), ex.turn_set().clone());
        v.set_cross_check(true);
        assert!(v.is_acyclic());
        for t in ex.turn_set().clone().iter() {
            assert!(v.query_remove_turn(t));
        }
    }

    #[test]
    fn witness_matches_full_build_exactly() {
        let topo = Topology::torus(&[4, 4]);
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let turns = TurnSet::new();
        let v = IncrementalVerifier::new(topo.clone(), vec![1, 1], universe.clone(), turns.clone());
        let cdg = Cdg::from_turn_set(&topo, &[1, 1], &universe, &turns);
        assert_eq!(v.find_cycle(), cdg.find_cycle());
    }
}
