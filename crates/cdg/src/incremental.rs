//! Incremental re-verification: what-if queries and commits read off
//! one skeleton, never a rebuilt CDG.
//!
//! The design loop the paper motivates — enumerate, verify, fix — edits
//! a design one turn, one channel class, or one link at a time. An
//! [`IncrementalVerifier`] keeps what such an edit cannot change — the
//! base's concrete channels and the classes they match, a [`Skeleton`] —
//! and what it does change as a [`Relation`]: one allow row per class and
//! a bit per channel of a failed link. Every edit is a few bit writes:
//!
//! * a turn sets or clears the allow entries of its class pair;
//! * a dropped channel class loses its row and its column, diagonal
//!   included, so a channel matching nothing else keeps no dependency;
//! * a failed link marks its channels (both traversal directions) dead.
//!   They keep their indices, so nothing renumbers, and the search
//!   treats them as leaves.
//!
//! A *query* makes the edit on a scratch copy of the relation, a
//! *commit* in place, and both take the same verdict:
//! [`Skeleton::is_acyclic`], which re-validates the cycle kept from the
//! verdict before and searches the skeleton only when that cycle broke.
//! Two cases need no verdict at all: removing dependencies from an
//! acyclic base leaves it acyclic, adding them to a cyclic one leaves it
//! cyclic.
//!
//! Queries take `&self` (they share one scratch relation behind a lock)
//! and allocate nothing. In cross-check mode (`EBDA_INCR_CHECK=1` or
//! [`IncrementalVerifier::set_cross_check`]) every query and commit is
//! asserted against the full rebuild, [`Cdg::from_turn_set`] on the
//! edited design: the verdict, and after a commit the witness too.

use crate::graph::{Cdg, ConcreteChannel, Relation, Skeleton};
use crate::topology::{NodeId, Topology};
use ebda_core::{Channel, Dimension, Direction, Turn, TurnSet};
use std::sync::{Mutex, MutexGuard};

/// Incremental Dally verifier over one base design.
///
/// Holds the base `(topology, vcs, universe, turns)`, its skeleton and
/// its class relation. Query methods answer "would this one-step edit
/// leave the CDG acyclic?" without mutating the base; apply methods
/// commit the edit.
#[derive(Debug)]
pub struct IncrementalVerifier {
    topo: Topology,
    vcs: Vec<u8>,
    turns: TurnSet,
    /// The channels of the topology the verifier was built on, matched
    /// against the universe. Failed links do not rebuild it.
    skeleton: Skeleton,
    /// `turns` as allow rows, the channels of failed links marked dead,
    /// and a cycle of the base for as long as it is cyclic.
    relation: Relation,
    /// The copy of `relation` a query edits.
    scratch: Mutex<Relation>,
    acyclic: bool,
    check: bool,
}

impl Clone for IncrementalVerifier {
    fn clone(&self) -> IncrementalVerifier {
        IncrementalVerifier {
            topo: self.topo.clone(),
            vcs: self.vcs.clone(),
            turns: self.turns.clone(),
            skeleton: self.skeleton.clone(),
            relation: self.relation.clone(),
            scratch: Mutex::new(self.relation.clone()),
            acyclic: self.acyclic,
            check: self.check,
        }
    }
}

/// [`Skeleton::is_acyclic`], counted: a verdict is a search of the
/// skeleton or a hit on the cycle kept from the verdict before.
fn verdict(skeleton: &Skeleton, relation: &mut Relation) -> bool {
    let before = relation.searches();
    let acyclic = skeleton.is_acyclic(relation);
    let searched = relation.searches() - before;
    ebda_obs::prof::work("incr", "searches", searched);
    ebda_obs::prof::work("incr", "witness_hits", 1 - searched);
    acyclic
}

/// Universe indices of the entries equal to `class` (value-based, as
/// [`Skeleton::fill`] reads a turn set: duplicates all match).
fn matching(skeleton: &Skeleton, class: Channel) -> impl Iterator<Item = usize> + '_ {
    let universe = skeleton.universe();
    (0..universe.len()).filter(move |&i| universe[i] == class)
}

/// Allows or prohibits turn `t` in `relation`.
fn set_turn(skeleton: &Skeleton, relation: &mut Relation, t: Turn, allowed: bool) {
    for from in matching(skeleton, t.from) {
        for to in matching(skeleton, t.to) {
            relation.set(from, to, allowed);
        }
    }
}

/// Drops channel class `victim` from `relation`: its row and its column
/// go, going straight on it included.
fn drop_class(skeleton: &Skeleton, relation: &mut Relation, victim: Channel) {
    for i in matching(skeleton, victim) {
        for j in 0..skeleton.universe().len() {
            relation.set(i, j, false);
            relation.set(j, i, false);
        }
    }
}

/// Marks dead the channels of the physical link between `node` and
/// `other`, its neighbour along `dim`/`dir`: both traversal directions.
fn kill_link(
    skeleton: &Skeleton,
    relation: &mut Relation,
    (node, other): (NodeId, NodeId),
    dim: Dimension,
    dir: Direction,
) {
    for (end, dir) in [(node, dir), (other, dir.opposite())] {
        for u in skeleton.node_channels(end) {
            let c = skeleton.channels()[u as usize];
            if c.dim == dim && c.dir == dir {
                relation.kill(u);
            }
        }
    }
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
        let skeleton = Skeleton::new(&topo, &vcs, &universe);
        let mut relation = skeleton.relation(&turns);
        let acyclic = verdict(&skeleton, &mut relation);
        IncrementalVerifier {
            topo,
            vcs,
            turns,
            skeleton,
            scratch: Mutex::new(relation.clone()),
            relation,
            acyclic,
            check,
        }
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

    /// The base topology, committed link failures included.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The base turn set.
    pub fn turns(&self) -> &TurnSet {
        &self.turns
    }

    /// The scratch relation, holding the base's rows with `edit` made.
    fn edited(&self, edit: impl FnOnce(&mut Relation)) -> MutexGuard<'_, Relation> {
        let mut scratch = self.scratch.lock().expect("a verdict does not panic");
        scratch.copy_from(&self.relation);
        edit(&mut scratch);
        scratch
    }

    /// A cycle witness of the base CDG, or `None` when acyclic: a fresh
    /// search in the order [`Cdg::find_cycle`] visits the full build, so
    /// the witnesses are the same concrete channels.
    pub fn find_cycle(&self) -> Option<Vec<ConcreteChannel>> {
        let channels = self.skeleton.channels();
        let mut scratch = self.edited(|_| {});
        let cycle = self.skeleton.find_cycle(&mut scratch)?;
        Some(cycle.iter().map(|&i| channels[i as usize]).collect())
    }

    /// Cross-check mode's reference: the witness of the full rebuild of
    /// an edited design, `None` when it is acyclic.
    fn reference(
        &self,
        topo: &Topology,
        universe: &[Channel],
        turns: &TurnSet,
    ) -> Option<Vec<ConcreteChannel>> {
        Cdg::from_turn_set(topo, &self.vcs, universe, turns).find_cycle()
    }

    /// Would the CDG be acyclic with turn `t` removed?
    pub fn query_remove_turn(&self, t: Turn) -> bool {
        ebda_obs::prof::work("incr", "queries", 1);
        // Nothing to remove, or an acyclic base losing dependencies.
        let got = if t.from == t.to || !self.turns.contains(t) || self.acyclic {
            self.acyclic
        } else {
            let edit = |r: &mut Relation| set_turn(&self.skeleton, r, t, false);
            verdict(&self.skeleton, &mut self.edited(edit))
        };
        if self.check {
            let turns: TurnSet = self.turns.iter().filter(|&x| x != t).collect();
            let universe = self.skeleton.universe();
            let want = self.reference(&self.topo, universe, &turns).is_none();
            assert_eq!(got, want, "incremental remove-turn verdict diverged: {t:?}");
        }
        got
    }

    /// Would the CDG be acyclic with turn `t` added?
    pub fn query_add_turn(&self, t: Turn) -> bool {
        ebda_obs::prof::work("incr", "queries", 1);
        // Nothing to add, or a cyclic base gaining dependencies.
        let got = if t.from == t.to || self.turns.contains(t) || !self.acyclic {
            self.acyclic
        } else {
            let edit = |r: &mut Relation| set_turn(&self.skeleton, r, t, true);
            verdict(&self.skeleton, &mut self.edited(edit))
        };
        if self.check {
            let mut turns = self.turns.clone();
            turns.insert(t);
            let universe = self.skeleton.universe();
            let want = self.reference(&self.topo, universe, &turns).is_none();
            assert_eq!(got, want, "incremental add-turn verdict diverged: {t:?}");
        }
        got
    }

    /// Would the CDG be acyclic with channel class `victim` dropped
    /// from the universe (all occurrences, plus the turns touching it —
    /// the shrinker's drop-channel delta)?
    pub fn query_remove_channel(&self, victim: Channel) -> bool {
        ebda_obs::prof::work("incr", "queries", 1);
        let universe = self.skeleton.universe();
        let got = if !universe.contains(&victim) || self.acyclic {
            self.acyclic
        } else {
            let edit = |r: &mut Relation| drop_class(&self.skeleton, r, victim);
            verdict(&self.skeleton, &mut self.edited(edit))
        };
        if self.check {
            let universe: Vec<Channel> =
                universe.iter().copied().filter(|&c| c != victim).collect();
            let kept = |x: &Turn| x.from != victim && x.to != victim;
            let turns: TurnSet = self.turns.iter().filter(kept).collect();
            let want = self.reference(&self.topo, &universe, &turns).is_none();
            assert_eq!(
                got, want,
                "incremental remove-channel verdict diverged: {victim:?}"
            );
        }
        got
    }

    /// Would the CDG be acyclic with the link `node --dim/dir-->`
    /// failed (both traversal directions die, as in
    /// [`Topology::with_failed_link`])?
    pub fn query_fail_link(&self, node: NodeId, dim: Dimension, dir: Direction) -> bool {
        ebda_obs::prof::work("incr", "queries", 1);
        let got = match self.topo.neighbor(node, dim, dir) {
            Some(other) if !self.acyclic => {
                let edit = |r: &mut Relation| kill_link(&self.skeleton, r, (node, other), dim, dir);
                verdict(&self.skeleton, &mut self.edited(edit))
            }
            // No such link, or an acyclic base losing dependencies.
            _ => self.acyclic,
        };
        if self.check {
            let failed = self.topo.clone().with_failed_link(node, dim, dir);
            let universe = self.skeleton.universe();
            let want = self.reference(&failed, universe, &self.turns).is_none();
            assert_eq!(
                got, want,
                "incremental fail-link verdict diverged: {node} {dim:?} {dir:?}"
            );
        }
        got
    }

    /// Commits a turn removal; returns the new verdict.
    pub fn apply_remove_turn(&mut self, t: Turn) -> bool {
        if t.from == t.to || !self.turns.contains(t) {
            return self.acyclic;
        }
        self.turns.remove(t);
        set_turn(&self.skeleton, &mut self.relation, t, false);
        self.commit(false)
    }

    /// Commits a turn addition; returns the new verdict.
    pub fn apply_add_turn(&mut self, t: Turn) -> bool {
        if t.from == t.to || self.turns.contains(t) {
            return self.acyclic;
        }
        self.turns.insert(t);
        set_turn(&self.skeleton, &mut self.relation, t, true);
        self.commit(true)
    }

    /// Commits a link failure; returns the new verdict. The dead
    /// channels keep their indices: nothing is rebuilt.
    pub fn apply_fail_link(&mut self, node: NodeId, dim: Dimension, dir: Direction) -> bool {
        let Some(other) = self.topo.neighbor(node, dim, dir) else {
            return self.acyclic;
        };
        self.topo = self.topo.clone().with_failed_link(node, dim, dir);
        kill_link(&self.skeleton, &mut self.relation, (node, other), dim, dir);
        self.commit(false)
    }

    /// The verdict after an edit of `self.relation` that only added
    /// dependencies (`grew`) or only removed them: free when the edit is
    /// monotone — an acyclic base losing dependencies, a cyclic one
    /// gaining them — and otherwise one verdict on the skeleton.
    fn commit(&mut self, grew: bool) -> bool {
        if self.acyclic == grew {
            self.acyclic = verdict(&self.skeleton, &mut self.relation);
        }
        if self.check {
            // Verdict and witness, as concrete channels: the dead ones
            // of this skeleton are the ones the rebuild never had.
            let want = self.reference(&self.topo, self.skeleton.universe(), &self.turns);
            assert_eq!(
                self.acyclic,
                want.is_none(),
                "committed verdict diverged from full rebuild"
            );
            assert_eq!(
                self.find_cycle(),
                want,
                "committed witness diverged from full rebuild"
            );
        }
        self.acyclic
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
        // (and in check mode, the witness must).
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
        // Committing marks the link's channels dead in place; a second
        // failure of the same link is a no-op.
        let after = v.apply_fail_link(0, Dimension::X, Direction::Plus);
        let failed = topo.with_failed_link(0, Dimension::X, Direction::Plus);
        assert_eq!(after, full_acyclic(&failed, &universe, &turns));
        assert_eq!(v.topology(), &failed);
        assert_eq!(v.apply_fail_link(0, Dimension::X, Direction::Plus), after);
    }

    #[test]
    fn the_only_cycle_dies_with_its_link_or_its_class() {
        // One ring, one class: the kept cycle is the ring itself, so a
        // failed link must forget it and a dropped class must take the
        // straight-through diagonal with it.
        let universe = parse_channels("X+").unwrap();
        let mut v =
            IncrementalVerifier::new(Topology::torus(&[4]), vec![1], universe, TurnSet::new());
        v.set_cross_check(true);
        assert!(!v.is_acyclic());
        assert!(v.query_remove_channel(v.skeleton.universe()[0]));
        assert!(v.query_fail_link(2, Dimension::X, Direction::Minus));
        assert!(v.apply_fail_link(2, Dimension::X, Direction::Minus));
        assert_eq!(v.find_cycle(), None);
    }

    #[test]
    fn a_dropped_class_loses_its_column_too() {
        // A ring of two channels: `e` leaves node 0 and matches class A,
        // `o` leaves node 1 and matches V and W. A may turn onto V and W
        // onto A, so `e -> o` exists through V's column alone and
        // `o -> e` through W's row: dropping V breaks the ring only if
        // the column goes with the row.
        let x = Channel::parse("X+").unwrap();
        let (a, v, w) = (
            x.at_coord(Dimension::X, 0),
            x.at_coord(Dimension::X, 1),
            x.at_parity(Dimension::X, ebda_core::Parity::Odd),
        );
        let turns: TurnSet = [Turn::new(a, v), Turn::new(w, a)].into_iter().collect();
        let mut ring =
            IncrementalVerifier::new(Topology::torus(&[2]), vec![1], vec![a, v, w], turns);
        ring.set_cross_check(true);
        assert!(!ring.is_acyclic());
        assert!(ring.query_remove_channel(v));
        assert!(ring.query_remove_channel(a));
        assert!(ring.query_remove_channel(w));
    }

    #[test]
    fn acyclic_base_answers_removals_for_free() {
        // North-last is acyclic: every removal query must return true
        // without a verdict (monotonicity early-exit).
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
