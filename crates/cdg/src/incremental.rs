//! Incremental re-verification: what-if queries and commits read off
//! one skeleton, never a rebuilt CDG.
//!
//! The design loop the paper motivates — enumerate, verify, fix — edits
//! a design one turn at a time. An [`IncrementalVerifier`] keeps what
//! such an edit cannot change — the base's concrete channels and the
//! classes they match, a [`Skeleton`] — and what it does change as a
//! [`Relation`], one allow row per class: a turn sets or clears the
//! allow entries of its class pair, a few bit writes.
//!
//! A *query* makes the edit on a scratch copy of the allow rows, a
//! *commit* in place, and both take the same verdict:
//! [`Skeleton::is_acyclic`], which tries the witnesses that earlier
//! cyclic verdicts stored and searches the skeleton only when none fits.
//! Two cases need no verdict at all: removing dependencies from an
//! acyclic base leaves it acyclic, adding them to a cyclic one leaves it
//! cyclic.
//!
//! Queries take `&self` (they share one scratch relation behind a lock)
//! and allocate nothing. `tests/incremental_equiv.rs` asserts every query
//! and commit against the full rebuild, [`crate::Cdg::from_turn_set`] on
//! the edited design: the verdict, and after a commit the witness too.

use crate::graph::{ConcreteChannel, Relation, Skeleton};
use crate::topology::Topology;
use ebda_core::{Channel, Turn, TurnSet};
use std::sync::{Mutex, MutexGuard};

/// Incremental Dally verifier over one base design.
///
/// Holds the base turn set, its skeleton and its class relation. Query
/// methods answer "would this one-step edit leave the CDG acyclic?"
/// without mutating the base; apply methods commit the edit.
#[derive(Debug)]
pub struct IncrementalVerifier {
    turns: TurnSet,
    /// The channels of the topology, matched against the universe.
    skeleton: Skeleton,
    /// `turns` as allow rows, with the witnesses of the commits.
    relation: Relation,
    /// The copy of `relation`'s rows a query edits, with the queries'
    /// witnesses.
    scratch: Mutex<Relation>,
    acyclic: bool,
}

impl Clone for IncrementalVerifier {
    fn clone(&self) -> IncrementalVerifier {
        IncrementalVerifier {
            turns: self.turns.clone(),
            skeleton: self.skeleton.clone(),
            relation: self.relation.clone(),
            scratch: Mutex::new(self.relation.clone()),
            acyclic: self.acyclic,
        }
    }
}

/// [`Skeleton::is_acyclic`], counted: a verdict is a search of the
/// skeleton or a hit on a stored witness.
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

impl IncrementalVerifier {
    /// Builds the verifier for a base design.
    pub fn new(
        topo: Topology,
        vcs: Vec<u8>,
        universe: Vec<Channel>,
        turns: TurnSet,
    ) -> IncrementalVerifier {
        let skeleton = Skeleton::new(&topo, &vcs, &universe);
        let mut relation = skeleton.relation(&turns);
        let acyclic = verdict(&skeleton, &mut relation);
        IncrementalVerifier {
            turns,
            skeleton,
            scratch: Mutex::new(relation.clone()),
            relation,
            acyclic,
        }
    }

    /// Whether the base design's CDG is acyclic (Dally-deadlock-free).
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
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
    /// search in the order [`crate::Cdg::find_cycle`] visits the full build, so
    /// the witnesses are the same concrete channels.
    pub fn find_cycle(&self) -> Option<Vec<ConcreteChannel>> {
        let channels = self.skeleton.channels();
        let mut scratch = self.edited(|_| {});
        let cycle = self.skeleton.find_cycle(&mut scratch)?;
        Some(cycle.iter().map(|&i| channels[i as usize]).collect())
    }

    /// Would the CDG be acyclic with turn `t` removed?
    pub fn query_remove_turn(&self, t: Turn) -> bool {
        ebda_obs::prof::work("incr", "queries", 1);
        // Nothing to remove, or an acyclic base losing dependencies.
        if t.from == t.to || !self.turns.contains(t) || self.acyclic {
            return self.acyclic;
        }
        let edit = |r: &mut Relation| set_turn(&self.skeleton, r, t, false);
        verdict(&self.skeleton, &mut self.edited(edit))
    }

    /// Would the CDG be acyclic with turn `t` added?
    pub fn query_add_turn(&self, t: Turn) -> bool {
        ebda_obs::prof::work("incr", "queries", 1);
        // Nothing to add, or a cyclic base gaining dependencies.
        if t.from == t.to || self.turns.contains(t) || !self.acyclic {
            return self.acyclic;
        }
        let edit = |r: &mut Relation| set_turn(&self.skeleton, r, t, true);
        verdict(&self.skeleton, &mut self.edited(edit))
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

    /// The verdict after an edit of `self.relation` that only added
    /// dependencies (`grew`) or only removed them: free when the edit is
    /// monotone — an acyclic base losing dependencies, a cyclic one
    /// gaining them — and otherwise one verdict on the skeleton.
    fn commit(&mut self, grew: bool) -> bool {
        if self.acyclic == grew {
            self.acyclic = verdict(&self.skeleton, &mut self.relation);
        }
        self.acyclic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Cdg;
    use ebda_core::parse_channels;

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
