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
//! reachable from `v`. Link failures and VC-mix changes fall back to a
//! full rebuild (counted under `incr:fallbacks`) for the *apply* path,
//! while the fail-link *query* is still answered incrementally by
//! masking all edges incident to the dead channels.
//!
//! Queries take `&self` and are safe to issue from parallel shrink
//! waves; `apply_*` methods commit a delta, maintaining the exact CSR
//! the full build would produce (asserted structurally in cross-check
//! mode, enabled via `EBDA_INCR_CHECK=1` or
//! [`IncrementalVerifier::set_cross_check`]).

use crate::csr::{self, Csr, EdgeMask, SccInfo};
use crate::graph::{Cdg, ConcreteChannel, Skeleton};
use crate::topology::{NodeId, Topology};
use ebda_core::{Channel, Dimension, Direction, Turn, TurnSet};
use std::collections::BTreeMap;

/// Edges a turn addition creates: the flat `(source, target)` delta
/// list plus the per-source successor overlay used by the reachability
/// probe before the edges exist in the CSR.
type GainedEdges = (Vec<(u32, u32)>, BTreeMap<u32, Vec<u32>>);

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
    /// rebuilt only when topology or VC mix change, never per turn edit.
    skeleton: Skeleton,
    /// Concrete channels matching each universe entry (the transpose of
    /// the skeleton's class matches).
    class_members: Vec<Vec<u32>>,
    csr: Csr,
    /// Predecessor lists per node, ascending.
    rev: Vec<Vec<u32>>,
    scc: SccInfo,
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
        let csr = skeleton.fill(&turns);
        let mut class_members = vec![Vec::new(); universe.len()];
        for u in 0..skeleton.channels().len() {
            for ci in skeleton.classes_of(u) {
                class_members[ci].push(u as u32);
            }
        }
        let scc = csr::tarjan(&csr);
        let mut v = IncrementalVerifier {
            topo,
            vcs,
            universe,
            turns,
            skeleton,
            class_members,
            csr,
            rev: Vec::new(),
            acyclic: scc.acyclic(),
            scc,
            check,
        };
        v.rebuild_rev();
        v
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
        csr::find_cycle(&self.csr).map(|idxs| {
            idxs.into_iter()
                .map(|i| self.channels()[i as usize])
                .collect()
        })
    }

    /// The full-rebuild fallback: topology or VC mix changed, so the
    /// skeleton itself is stale.
    fn rebuild(&mut self) {
        *self = IncrementalVerifier::build(
            self.topo.clone(),
            std::mem::take(&mut self.vcs),
            std::mem::take(&mut self.universe),
            std::mem::take(&mut self.turns),
            self.check,
        );
    }

    fn refresh_scc(&mut self) {
        self.scc = csr::tarjan(&self.csr);
        self.acyclic = self.scc.acyclic();
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
        let mut mask = EdgeMask::new(self.csr.edge_count());
        let mut removed = Vec::new();
        for ci in 0..self.universe.len() {
            if self.universe[ci] != t.from {
                continue;
            }
            for &u in &self.class_members[ci] {
                let base = self.csr.edge_base(u as usize);
                for (k, &v) in self.csr.row(u as usize).iter().enumerate() {
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
        let mut mask = EdgeMask::new(self.csr.edge_count());
        let mut removed = Vec::new();
        for ci in 0..self.universe.len() {
            if self.universe[ci] != victim {
                continue;
            }
            for &u in &self.class_members[ci] {
                let base = self.csr.edge_base(u as usize);
                for (k, &v) in self.csr.row(u as usize).iter().enumerate() {
                    if !mask.get(base + k)
                        && !self.allowed_without_channel(u as usize, v as usize, victim)
                    {
                        mask.set(base + k);
                        removed.push((u, v));
                    }
                }
                for &w in &self.rev[u as usize] {
                    let ei = self
                        .csr
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
        ebda_obs::prof::work("incr", "dirty_edges", removed.len() as u64);
        let ncomp = self.scc.comp_nodes.len();
        let mut touched = vec![false; ncomp];
        for &(u, v) in removed {
            let cu = self.scc.comp_of[u as usize];
            if cu == self.scc.comp_of[v as usize] {
                touched[cu as usize] = true;
            }
        }
        if (0..ncomp).any(|c| self.scc.cyclic[c] && !touched[c]) {
            return false;
        }
        for (c, &was_touched) in touched.iter().enumerate() {
            if !(self.scc.cyclic[c] && was_touched) {
                continue;
            }
            ebda_obs::prof::work("incr", "scc_rechecked", 1);
            let (cyclic, visited) = csr::has_cycle_within(
                &self.csr,
                &self.scc.comp_nodes[c],
                &self.scc.comp_of,
                c as u32,
                mask,
            );
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
        let mut mask = EdgeMask::new(self.csr.edge_count());
        let mut removed = Vec::new();
        for &u in &dead {
            let base = self.csr.edge_base(u as usize);
            for (k, &v) in self.csr.row(u as usize).iter().enumerate() {
                if mask.set(base + k) {
                    removed.push((u, v));
                }
            }
            for &w in &self.rev[u as usize] {
                let ei = self
                    .csr
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
        let mut added = Vec::new();
        let mut extra: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for ci in 0..self.universe.len() {
            if self.universe[ci] != t.from {
                continue;
            }
            for &u in &self.class_members[ci] {
                let c = self.channels()[u as usize];
                for v in self.skeleton.node_channels(c.to) {
                    if self.csr.has_edge(u as usize, v) {
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
        for &(u, v) in &added {
            if self.reaches(v, u, &extra) {
                return false;
            }
        }
        true
    }

    /// DFS reachability `src ->* dst` over base + extra edges.
    fn reaches(&self, src: u32, dst: u32, extra: &BTreeMap<u32, Vec<u32>>) -> bool {
        let n = self.csr.node_count();
        let mut visited = vec![false; n];
        let mut stack = vec![src];
        let mut edges_visited = 0u64;
        let mut hit = false;
        while let Some(x) = stack.pop() {
            if x == dst {
                hit = true;
                break;
            }
            if std::mem::replace(&mut visited[x as usize], true) {
                continue;
            }
            for &y in self.csr.row(x as usize) {
                edges_visited += 1;
                stack.push(y);
            }
            if let Some(ys) = extra.get(&x) {
                for &y in ys {
                    edges_visited += 1;
                    stack.push(y);
                }
            }
        }
        ebda_obs::prof::work("incr", "edges_visited", edges_visited);
        hit
    }

    /// Commits a turn removal, maintaining the exact CSR a full rebuild
    /// would produce (row-level edits only — no dependency-rule
    /// re-evaluation outside the dirty slots). Returns the new verdict.
    pub fn apply_remove_turn(&mut self, t: Turn) -> bool {
        if t.from == t.to || !self.turns.contains(t) {
            return self.acyclic;
        }
        let (_, mask) = self.edges_lost_by_turn(t);
        self.turns.remove(t);
        self.drop_masked_edges(&mask);
        self.refresh_scc();
        if self.check {
            self.assert_matches_full_rebuild();
        }
        self.acyclic
    }

    /// Commits a turn addition; returns the new verdict.
    pub fn apply_add_turn(&mut self, t: Turn) -> bool {
        if t.from == t.to || self.turns.contains(t) {
            return self.acyclic;
        }
        let (added, extra) = self.edges_gained_by_turn(t);
        self.turns.insert(t);
        if !added.is_empty() {
            self.merge_extra_edges(&extra);
        }
        self.refresh_scc();
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

    /// Commits a VC-mix change — also a full-rebuild fallback, since
    /// the concrete-channel set itself changes.
    pub fn apply_set_vcs(&mut self, vcs: Vec<u8>) -> bool {
        ebda_obs::prof::work("incr", "fallbacks", 1);
        self.vcs = vcs;
        self.rebuild();
        self.acyclic
    }

    fn drop_masked_edges(&mut self, mask: &EdgeMask) {
        if mask.count() == 0 {
            return;
        }
        let n = self.csr.node_count();
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0u32);
        let mut col = Vec::with_capacity(self.csr.edge_count() - mask.count());
        for u in 0..n {
            let base = self.csr.edge_base(u);
            for (k, &v) in self.csr.row(u).iter().enumerate() {
                if !mask.get(base + k) {
                    col.push(v);
                }
            }
            row_start.push(col.len() as u32);
        }
        self.csr = Csr::new(n, row_start, col);
        self.rebuild_rev();
    }

    fn merge_extra_edges(&mut self, extra: &BTreeMap<u32, Vec<u32>>) {
        let n = self.csr.node_count();
        let total: usize = extra.values().map(Vec::len).sum();
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0u32);
        let mut col = Vec::with_capacity(self.csr.edge_count() + total);
        let empty: Vec<u32> = Vec::new();
        for u in 0..n {
            // Merge two ascending lists to keep the edge-order invariant.
            let old = self.csr.row(u);
            let new = extra.get(&(u as u32)).unwrap_or(&empty);
            let (mut i, mut j) = (0, 0);
            while i < old.len() || j < new.len() {
                if j >= new.len() || (i < old.len() && old[i] < new[j]) {
                    col.push(old[i]);
                    i += 1;
                } else {
                    col.push(new[j]);
                    j += 1;
                }
            }
            row_start.push(col.len() as u32);
        }
        self.csr = Csr::new(n, row_start, col);
        self.rebuild_rev();
    }

    fn rebuild_rev(&mut self) {
        let n = self.csr.node_count();
        let mut rev = vec![Vec::new(); n];
        for u in 0..n {
            for &v in self.csr.row(u) {
                rev[v as usize].push(u as u32);
            }
        }
        self.rev = rev;
    }

    /// Cross-check-mode structural assertion: the incrementally
    /// maintained CSR must be *row-for-row identical* to a fresh full
    /// build (the edge-order invariant makes this comparison exact).
    fn assert_matches_full_rebuild(&self) {
        let cdg = Cdg::from_turn_set(&self.topo, &self.vcs, &self.universe, &self.turns);
        assert_eq!(
            self.csr.node_count(),
            cdg.node_count(),
            "incremental CSR node count diverged from full rebuild"
        );
        for u in 0..self.csr.node_count() {
            assert_eq!(
                self.csr.row(u),
                cdg.successors(u),
                "incremental CSR row {u} diverged from full rebuild"
            );
        }
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
