//! Incremental re-verification sessions for the shrinker, mutation
//! neighborhoods, corpus re-checks and fault-churn replays.
//!
//! A shrink pass proposes hundreds of one-step reductions of the same
//! parent artifact; evaluating each candidate from scratch rebuilds the
//! identical CDG over and over. An [`IncrementalSession`] enumerates the
//! parent's channels once (the skeleton of an
//! [`ebda_cdg::IncrementalVerifier`]) and reads the verdict of a turn-
//! or channel-drop candidate off it without building a graph, falling
//! back to a full [`evaluate`] only for structural candidates (unwrap,
//! radix shave, VC drop) that renumber concrete channels.
//!
//! **Why this is verdict-preserving.** The shrink predicates consult
//! exactly four booleans: Dally's verdict, Duato's `escape_acyclic`
//! (which *is* Dally's check on the same inputs — see
//! [`ebda_cdg::duato::verify_escape_given`]), the brute-force verdict,
//! and EbDa's constructive verdict. The session computes the same
//! booleans — Dally/Duato incrementally, brute and EbDa exactly as the
//! full path does — and feeds them to the same
//! [`crate::verdict::disagreement_rule`], so the accepted shrink chain,
//! the final artifact, and every downstream byte (ledger, coverage,
//! witnesses) are identical to a full evaluation per candidate. Duato's
//! connectivity BFS is skipped: neither [`crate::verdict::cross_check`]
//! nor the corpus mismatch predicate ever reads `escape_connected`.
//!
//! There is no switch: incremental is what the code does. The reference
//! is the per-query full-rebuild assertion inside
//! [`ebda_cdg::IncrementalVerifier`] under `EBDA_INCR_CHECK=1` (CI runs
//! the corpus campaigns with it), plus this module's unit tests, which
//! compare each entry point against an explicit full-`evaluate` chain.

use crate::artifact::Artifact;
use crate::shrink::{shrink_with_context, ShrinkDelta};
use crate::verdict::{brute_path, cross_check, disagreement_rule, evaluate, Mutation};
use ebda_cdg::{verify_turn_set, IncrementalVerifier, NodeId, Topology};
use ebda_core::{design_verdict, Dimension, Direction};

/// The four per-path booleans a shrink predicate needs — the compact
/// form of [`crate::verdict::Verdicts`] that incremental queries can
/// produce without building full reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathVerdicts {
    /// EbDa's constructive verdict (`None` without a design).
    pub ebda_free: Option<bool>,
    /// Dally's CDG verdict (on the mutation's Dally topology).
    pub dally_free: bool,
    /// Duato's escape-acyclicity (on the real topology).
    pub duato_acyclic: bool,
    /// The brute-force verdict.
    pub brute_free: bool,
}

/// One incremental shrink session: the parent artifact's CDG(s) built
/// once, queried per candidate.
pub struct IncrementalSession {
    mutation: Mutation,
    /// Verifier on the Dally topology (diverted under
    /// [`Mutation::DallyIgnoresWrap`]).
    dally: IncrementalVerifier,
    /// Separate verifier on the real topology, only when the mutation
    /// makes it differ from the Dally one — mutations are handled
    /// incrementally *and* exactly.
    duato: Option<IncrementalVerifier>,
}

impl IncrementalSession {
    /// Builds the session for one parent artifact under `mutation`.
    pub fn new(parent: &Artifact, mutation: Mutation) -> IncrementalSession {
        let topo = parent.topology();
        let dally_topo = match mutation {
            Mutation::DallyIgnoresWrap => Topology::mesh(&parent.radix),
            _ => topo.clone(),
        };
        let duato = (dally_topo != topo).then(|| {
            IncrementalVerifier::new(
                topo,
                parent.vcs.clone(),
                parent.universe.clone(),
                parent.turns.clone(),
            )
        });
        let dally = IncrementalVerifier::new(
            dally_topo,
            parent.vcs.clone(),
            parent.universe.clone(),
            parent.turns.clone(),
        );
        IncrementalSession {
            mutation,
            dally,
            duato,
        }
    }

    /// The mutation this session evaluates under.
    pub fn mutation(&self) -> Mutation {
        self.mutation
    }

    /// The per-path booleans for `candidate = parent + delta`, or
    /// `None` when the delta is structural and the caller must fall
    /// back to a full [`evaluate`].
    pub fn path_verdicts(&self, candidate: &Artifact, delta: &ShrinkDelta) -> Option<PathVerdicts> {
        let query = |v: &IncrementalVerifier| -> Option<bool> {
            match delta {
                ShrinkDelta::DropTurn(t) => Some(v.query_remove_turn(*t)),
                ShrinkDelta::DropChannel(c) => Some(v.query_remove_channel(*c)),
                ShrinkDelta::Structural => None,
            }
        };
        let dally_free = query(&self.dally)?;
        let duato_acyclic = match &self.duato {
            Some(v) => query(v)?,
            None => dally_free,
        };
        let brute = brute_path(&candidate.topology(), candidate, self.mutation);
        let ebda_free = match self.mutation {
            Mutation::EbdaSkipsTheorem1 => candidate.design.as_ref().map(|_| true),
            _ => candidate
                .design
                .as_ref()
                .map(|seq| design_verdict(seq).is_deadlock_free()),
        };
        Some(PathVerdicts {
            ebda_free,
            dally_free,
            duato_acyclic,
            brute_free: brute.is_deadlock_free(),
        })
    }

    /// The cross-check predicate for one shrink candidate: incremental
    /// when the delta allows, byte-equivalent full evaluation otherwise.
    pub fn still_disagrees(&self, candidate: &Artifact, delta: &ShrinkDelta) -> bool {
        match self.path_verdicts(candidate, delta) {
            Some(p) => disagreement_rule(
                candidate,
                p.ebda_free,
                p.dally_free,
                p.duato_acyclic,
                p.brute_free,
            )
            .is_some(),
            None => cross_check(candidate, &evaluate(candidate, self.mutation)).is_some(),
        }
    }
}

/// Shrinks a disagreeing artifact with per-pass incremental sessions:
/// the accepted chain (and therefore the shrunk artifact) is the one
/// [`crate::shrink`] walks with a full-`evaluate` predicate.
pub fn shrink_disagreement(artifact: &Artifact, mutation: Mutation, budget: usize) -> Artifact {
    shrink_with_context(
        artifact,
        budget,
        |parent| IncrementalSession::new(parent, mutation),
        |session, candidate, delta| session.still_disagrees(candidate, delta),
    )
}

/// Shrinks an artifact while its Dally CDG stays cyclic — the
/// CDG-bound shrink workload `bench_report` measures (`shrink/
/// turn-ring-cdg`): turn/channel drops are queries on the parent's
/// verifier, structural candidates rebuild.
pub fn shrink_while_cyclic(artifact: &Artifact, budget: usize) -> Artifact {
    shrink_with_context(
        artifact,
        budget,
        |parent| {
            IncrementalVerifier::new(
                parent.topology(),
                parent.vcs.clone(),
                parent.universe.clone(),
                parent.turns.clone(),
            )
        },
        |verifier, candidate, delta| {
            let free = match delta {
                ShrinkDelta::DropTurn(t) => verifier.query_remove_turn(*t),
                ShrinkDelta::DropChannel(c) => verifier.query_remove_channel(*c),
                ShrinkDelta::Structural => verify_turn_set(
                    &candidate.topology(),
                    &candidate.vcs,
                    &candidate.universe,
                    &candidate.turns,
                )
                .is_deadlock_free(),
            };
            !free
        },
    )
}

/// Re-verifies Dally's criterion after each fault of a link-failure
/// schedule (the fault-churn replay pattern): one incremental session
/// whose `query_fail_link` marks the link's channels dead on a scratch
/// copy and whose `apply_fail_link` marks them in place — faults stack
/// and nothing is rebuilt. Returns the per-fault verdicts (acyclic
/// after the fault?), identical to rebuilding the CDG per fault.
pub fn verify_fault_schedule(
    artifact: &Artifact,
    faults: &[(NodeId, Dimension, Direction)],
) -> Vec<bool> {
    let mut v = IncrementalVerifier::new(
        artifact.topology(),
        artifact.vcs.clone(),
        artifact.universe.clone(),
        artifact.turns.clone(),
    );
    faults
        .iter()
        .map(|&(node, dim, dir)| {
            let verdict = v.query_fail_link(node, dim, dir);
            v.apply_fail_link(node, dim, dir);
            verdict
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactKind;
    use crate::shrink::{shrink, DEFAULT_SHRINK_BUDGET};
    use ebda_core::{parse_channels, PartitionSeq, TurnSet};

    fn torus_dimension_order() -> Artifact {
        let seq = PartitionSeq::parse("X+ X- | Y+ Y-").unwrap();
        let universe = seq.channels();
        let turns = ebda_core::extract_turns(&seq).unwrap().into_turn_set();
        Artifact {
            id: 0,
            kind: ArtifactKind::Partitioning,
            radix: vec![4, 4],
            wrap: vec![true, true],
            vcs: vec![1, 1],
            universe,
            turns,
            design: Some(seq),
        }
    }

    fn all_turns_mesh() -> Artifact {
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let mut turns = TurnSet::new();
        for &a in &universe {
            for &b in &universe {
                if a != b {
                    turns.insert(ebda_core::Turn::new(a, b));
                }
            }
        }
        Artifact {
            id: 0,
            kind: ArtifactKind::RandomTurns,
            radix: vec![4, 4],
            wrap: vec![false, false],
            vcs: vec![1, 1],
            universe,
            turns,
            design: None,
        }
    }

    #[test]
    fn incremental_shrink_matches_full_evaluate_shrink() {
        // The DallyIgnoresWrap mutation disagrees on a torus; the
        // incremental session (two verifiers, since the Dally topology
        // diverges) must walk the identical accepted chain as the
        // full-evaluate predicate.
        let mutation = Mutation::DallyIgnoresWrap;
        let a = torus_dimension_order();
        assert!(cross_check(&a, &evaluate(&a, mutation)).is_some());
        let full = shrink(
            &a,
            |c| cross_check(c, &evaluate(c, mutation)).is_some(),
            DEFAULT_SHRINK_BUDGET,
        );
        assert_eq!(
            shrink_disagreement(&a, mutation, DEFAULT_SHRINK_BUDGET),
            full
        );
        // The shrunk artifact must still disagree under a fresh full
        // evaluation — the session never keeps a stale acceptance.
        assert!(cross_check(&full, &evaluate(&full, mutation)).is_some());
    }

    #[test]
    fn cyclic_shrink_matches_full_rebuild_and_witnesses_agree() {
        // The bench workload predicate ("Dally still cyclic") must walk
        // the same accepted chain as a full rebuild per candidate, and
        // the shrunk artifact's witness cycle must match.
        let a = all_turns_mesh();
        let full = shrink(
            &a,
            |c| !verify_turn_set(&c.topology(), &c.vcs, &c.universe, &c.turns).is_deadlock_free(),
            DEFAULT_SHRINK_BUDGET,
        );
        assert_ne!(full, a, "the all-turns artifact must shrink");
        let incr = shrink_while_cyclic(&a, DEFAULT_SHRINK_BUDGET);
        assert_eq!(incr, full);
        let wf = verify_turn_set(&full.topology(), &full.vcs, &full.universe, &full.turns);
        let wi = verify_turn_set(&incr.topology(), &incr.vcs, &incr.universe, &incr.turns);
        assert_eq!(
            wf.cycle.as_ref().map(|c| format!("{c:?}")),
            wi.cycle.as_ref().map(|c| format!("{c:?}")),
            "witness cycles must be byte-identical"
        );
        assert!(wf.cycle.is_some(), "shrunk artifact stays cyclic");
    }

    #[test]
    fn fault_schedule_matches_full_rebuild_chain() {
        let a = Artifact {
            design: None,
            kind: ArtifactKind::ChannelOrdering,
            turns: TurnSet::new(),
            ..torus_dimension_order()
        };
        let faults = [
            (5usize, Dimension::X, Direction::Plus),
            (10, Dimension::Y, Direction::Minus),
            (0, Dimension::X, Direction::Minus),
        ];
        let incr = verify_fault_schedule(&a, &faults);
        // The reference: rebuild the CDG after every fault.
        let mut topo = a.topology();
        let full: Vec<bool> = faults
            .iter()
            .map(|&(node, dim, dir)| {
                topo = topo.clone().with_failed_link(node, dim, dir);
                verify_turn_set(&topo, &a.vcs, &a.universe, &a.turns).is_deadlock_free()
            })
            .collect();
        assert_eq!(incr, full);
    }
}
