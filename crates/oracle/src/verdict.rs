//! The four verdict paths and the cross-checking rules between them.
//!
//! Every artifact is pushed through:
//!
//! 1. **EbDa theorems** (`ebda-core`): [`ebda_core::design_verdict`] on the
//!    partition sequence — partitioning artifacts only.
//! 2. **Dally** (`ebda-cdg`): cycle search on the artifact's CDG
//!    ([`ebda_cdg::VerificationReport::of`]).
//! 3. **Duato** (`ebda-cdg`): escape-subnetwork acyclicity + connectivity
//!    via [`ebda_cdg::duato::verify_escape_given`], treating the whole
//!    relation as its own escape network.
//! 4. **Brute force** ([`crate::brute`]): greatest-fixed-point search over
//!    channel-wait configurations, sharing no code with the CDG.
//!
//! [`cross_check`] then applies the soundness relations the theory
//! promises; any violation is a [`Disagreement`] and means one of the four
//! implementations is wrong. [`Mutation`] deliberately breaks one path so
//! the campaign can prove it would notice.
//!
//! An [`Evaluation`] builds the artifact's CDG once and keeps it beside
//! the [`Verdicts`]: Dally's report, Duato's acyclicity half, the
//! ordering certificate of the provenance and the `cdg_edge` coverage
//! family all read that one graph. The brute path takes nothing from it.

use crate::artifact::Artifact;
use crate::brute::{self, BruteReport};
use crate::provenance::Provenance;
use ebda_cdg::duato::{verify_escape_given, DuatoReport};
use ebda_cdg::{verify_turn_set, Cdg, Topology, VerificationReport};
use ebda_core::{extract_turns, DesignVerdict, Extraction};
use ebda_obs::CoverageMap;
use std::fmt;

/// A deliberately-broken checker, for proving the oracle catches bugs.
/// `None` is the production configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// All four paths run unmodified.
    #[default]
    None,
    /// The Dally path verifies on the unwrapped mesh even when the
    /// artifact's topology is a torus — the classic "forgot the wrap
    /// links" verifier bug.
    DallyIgnoresWrap,
    /// The EbDa path reports every design as valid, skipping the Theorem 1
    /// check — an unsound constructive verifier.
    EbdaSkipsTheorem1,
    /// The brute path stops pruning after its first round: a pair the
    /// fixed point discards in a later round is kept alive, so designs
    /// that drain in more than one round are reported deadlocked — a
    /// searcher that mistakes one sweep for convergence.
    BruteStopsAfterFirstRound,
}

/// The `--mutate` names (`none`, `dally-ignores-wrap`,
/// `ebda-skips-theorem1`, `brute-stops-after-first-round`), the inverse
/// of [`fmt::Display`].
impl std::str::FromStr for Mutation {
    type Err = String;

    fn from_str(s: &str) -> Result<Mutation, String> {
        match s {
            "none" => Ok(Mutation::None),
            "dally-ignores-wrap" => Ok(Mutation::DallyIgnoresWrap),
            "ebda-skips-theorem1" => Ok(Mutation::EbdaSkipsTheorem1),
            "brute-stops-after-first-round" => Ok(Mutation::BruteStopsAfterFirstRound),
            _ => Err(
                "unknown mutation (try dally-ignores-wrap, ebda-skips-theorem1, \
                      brute-stops-after-first-round)"
                    .into(),
            ),
        }
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::None => write!(f, "none"),
            Mutation::DallyIgnoresWrap => write!(f, "dally-ignores-wrap"),
            Mutation::EbdaSkipsTheorem1 => write!(f, "ebda-skips-theorem1"),
            Mutation::BruteStopsAfterFirstRound => write!(f, "brute-stops-after-first-round"),
        }
    }
}

/// The four verdicts on one artifact.
#[derive(Debug, Clone)]
pub struct Verdicts {
    /// EbDa's constructive verdict — `None` for artifacts without a design.
    pub ebda: Option<DesignVerdict>,
    /// Dally's CDG verdict.
    pub dally: VerificationReport,
    /// Duato's escape conditions on the full relation.
    pub duato: DuatoReport,
    /// The brute-force search verdict.
    pub brute: BruteReport,
}

/// A violated cross-checking rule: the loud failure the oracle exists for.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Which rule was violated.
    pub rule: &'static str,
    /// Human-readable evidence: artifact summary plus both verdicts.
    pub detail: String,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// One evaluated artifact: its four verdicts and the one CDG the
/// CDG-side paths read them off, kept for the evidence that reads the
/// same graph ([`Evaluation::provenance`], [`Evaluation::coverage`]).
#[derive(Debug, Clone)]
pub struct Evaluation<'a> {
    artifact: &'a Artifact,
    /// The four verdicts.
    pub verdicts: Verdicts,
    /// The relation's graph on the artifact's own topology — never the
    /// one a mutation diverts Dally to.
    cdg: Cdg,
    /// The turn extraction of the artifact's design, when it has a
    /// valid one — whatever verdict a mutation has the EbDa path give.
    extraction: Option<Extraction>,
}

impl<'a> Evaluation<'a> {
    /// Runs all four verdict paths on an artifact, with `mutation`
    /// optionally sabotaging one of them. The artifact's CDG is built
    /// once; [`Mutation::DallyIgnoresWrap`] on a wrapped artifact builds
    /// Dally's diverted graph beside it.
    pub fn of(artifact: &'a Artifact, mutation: Mutation) -> Evaluation<'a> {
        use ebda_obs::prof;
        let _p = prof::phase("oracle/evaluate");
        prof::work("oracle/evaluate", "artifacts", 1);
        let topo = artifact.topology();
        let (ebda, extraction) = {
            let _p = prof::phase("oracle/evaluate/ebda");
            match &artifact.design {
                None => (None, None),
                Some(seq) => {
                    // What `design_verdict` decides, its extraction kept
                    // for the `obligation` coverage family.
                    let extraction = extract_turns(seq);
                    let (partitions, channels) = (seq.len(), seq.channel_count());
                    let verdict = match (&extraction, mutation) {
                        (_, Mutation::EbdaSkipsTheorem1) => DesignVerdict::DeadlockFree {
                            partitions,
                            channels,
                            turns: artifact.turns.counts(),
                        },
                        (Ok(extraction), _) => DesignVerdict::DeadlockFree {
                            partitions,
                            channels,
                            turns: extraction.turn_set().counts(),
                        },
                        (Err(e), _) => DesignVerdict::Rejected {
                            reason: e.to_string(),
                        },
                    };
                    (Some(verdict), extraction.ok())
                }
            }
        };
        let (cdg, honest, diverted) = {
            let _p = prof::phase("oracle/evaluate/dally");
            let cdg = artifact.cdg();
            let honest = VerificationReport::of(&cdg);
            let diverted = match mutation {
                Mutation::DallyIgnoresWrap if artifact.wraps() => Some(verify_turn_set(
                    &Topology::mesh(&artifact.radix),
                    &artifact.vcs,
                    &artifact.universe,
                    &artifact.turns,
                )),
                _ => None,
            };
            (cdg, honest, diverted)
        };
        let duato = {
            let _p = prof::phase("oracle/evaluate/duato");
            // The acyclicity half of Duato's check is Dally's check on
            // the real topology: the honest report, whatever graph a
            // mutation has Dally look at.
            verify_escape_given(&honest, &topo, &artifact.universe, &artifact.turns)
        };
        let brute = {
            let _p = prof::phase("oracle/evaluate/brute");
            let rounds = match mutation {
                Mutation::BruteStopsAfterFirstRound => 1,
                _ => u32::MAX,
            };
            let (vcs, universe, turns) = (&artifact.vcs, &artifact.universe, &artifact.turns);
            brute::search_rounds(&topo, vcs, universe, turns, rounds)
        };
        Evaluation {
            artifact,
            verdicts: Verdicts {
                ebda,
                dally: diverted.unwrap_or(honest),
                duato,
                brute,
            },
            cdg,
            extraction,
        }
    }

    /// The provenance of these verdicts, its ordering certificate read
    /// off the evaluation's graph.
    pub fn provenance(&self) -> Provenance {
        Provenance::build(self.artifact, &self.verdicts, &self.cdg)
    }

    /// The artifact's coverage contribution, its `cdg_edge` family read
    /// off the evaluation's graph and its `obligation` family off the
    /// EbDa path's extraction.
    pub fn coverage(&self) -> CoverageMap {
        let extraction = self.extraction.as_ref();
        crate::coverage::extract(self.artifact, &self.verdicts, &self.cdg, extraction)
    }
}

/// Runs all four verdict paths on an artifact, with `mutation` optionally
/// sabotaging one of them. Callers that go on to build evidence keep the
/// [`Evaluation`] instead, and its graph with it.
pub fn evaluate(artifact: &Artifact, mutation: Mutation) -> Verdicts {
    Evaluation::of(artifact, mutation).verdicts
}

/// Applies the cross-checking rules. Returns the first violated rule, or
/// `None` when all paths agree.
///
/// The rules are exactly the soundness relations the theory gives us:
///
/// * `dally-vs-brute` — Dally's criterion (acyclic CDG) and the
///   brute-force configuration search decide the *same* property, so they
///   must always agree.
/// * `duato-vs-dally` — Duato's escape-acyclicity condition on the full
///   relation is Dally's check by another route; it must match.
/// * `ebda-vs-brute` — a design EbDa accepts is deadlock-free by
///   construction on **meshes** (wrap links void the guarantee without
///   dateline classes), so on unwrapped topologies the brute searcher must
///   find it free.
pub fn cross_check(artifact: &Artifact, verdicts: &Verdicts) -> Option<Disagreement> {
    let (dally, duato, brute) = (&verdicts.dally, &verdicts.duato, &verdicts.brute);
    let (dally_free, brute_free) = (dally.is_deadlock_free(), brute.is_deadlock_free());
    let (rule, detail) = if dally_free != brute_free {
        let detail = format!("dally says {dally} but brute says {brute}");
        ("dally-vs-brute", detail)
    } else if duato.escape_acyclic != dally_free {
        let acyclic = duato.escape_acyclic;
        let detail = format!("duato escape-acyclic={acyclic} but dally says {dally}");
        ("duato-vs-dally", detail)
    } else {
        let mesh_deadlocks = !artifact.wraps() && !brute_free;
        let ebda = verdicts
            .ebda
            .as_ref()
            .filter(|v| mesh_deadlocks && v.is_deadlock_free())?;
        let detail = format!("EbDa accepts ({ebda}) on a mesh but brute says {brute}");
        ("ebda-vs-brute", detail)
    };
    let detail = format!("{}: {detail}", artifact.summary());
    Some(Disagreement { rule, detail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ArtifactKind, Generator};
    use ebda_core::{catalog, extract_turns};

    fn design_artifact(
        seq: ebda_core::PartitionSeq,
        radix: Vec<usize>,
        wrap: Vec<bool>,
    ) -> Artifact {
        let universe = seq.channels();
        let vcs = ebda_cdg::dally::infer_vcs(&universe, radix.len());
        let turns = extract_turns(&seq).unwrap().into_turn_set();
        Artifact {
            id: 0,
            kind: ArtifactKind::Partitioning,
            radix,
            wrap,
            vcs,
            universe,
            turns,
            design: Some(seq),
        }
    }

    #[test]
    fn clean_design_passes_all_rules() {
        let a = design_artifact(catalog::fig7b_dyxy(), vec![4, 4], vec![false, false]);
        let v = evaluate(&a, Mutation::None);
        assert!(v.ebda.as_ref().unwrap().is_deadlock_free());
        assert!(v.dally.is_deadlock_free());
        assert!(v.brute.is_deadlock_free());
        assert!(cross_check(&a, &v).is_none());
    }

    #[test]
    fn dally_wrap_mutation_is_caught_on_a_torus_ring() {
        // Dimension-order on a torus: cyclic only through the wrap links,
        // so a verifier that drops them wrongly accepts.
        let a = design_artifact(
            ebda_core::PartitionSeq::parse("X+ X- | Y+ Y-").unwrap(),
            vec![4, 4],
            vec![true, true],
        );
        let honest = evaluate(&a, Mutation::None);
        assert!(cross_check(&a, &honest).is_none(), "honest paths agree");
        assert!(!honest.brute.is_deadlock_free());

        let mutated = evaluate(&a, Mutation::DallyIgnoresWrap);
        let d = cross_check(&a, &mutated).expect("mutation must be caught");
        assert_eq!(d.rule, "dally-vs-brute");
        assert!(d.to_string().contains("dally-vs-brute"));
    }

    #[test]
    fn ebda_theorem1_mutation_is_caught_on_a_mesh() {
        // An invalid partitioning whose naive router allows every turn:
        // EbDa honestly rejects it; the mutated EbDa accepts and collides
        // with the brute verdict on the mesh.
        let seq = ebda_core::PartitionSeq::parse("X+ X- Y+ Y-").unwrap();
        let universe = seq.channels();
        let turns = crate::artifact::naive_turns(&seq);
        let a = Artifact {
            id: 0,
            kind: ArtifactKind::Partitioning,
            radix: vec![4, 4],
            wrap: vec![false, false],
            vcs: vec![1, 1],
            universe,
            turns,
            design: Some(seq),
        };
        let honest = evaluate(&a, Mutation::None);
        assert!(cross_check(&a, &honest).is_none());
        assert!(!honest.ebda.as_ref().unwrap().is_deadlock_free());

        let mutated = evaluate(&a, Mutation::EbdaSkipsTheorem1);
        let d = cross_check(&a, &mutated).expect("mutation must be caught");
        assert_eq!(d.rule, "ebda-vs-brute");
    }

    #[test]
    fn generated_stream_is_disagreement_free() {
        // A quick inline sweep; the full campaign lives in the
        // differential module and the integration tests.
        let mut g = Generator::with_max_nodes(7, 16);
        for _ in 0..24 {
            let a = g.next_artifact();
            let v = evaluate(&a, Mutation::None);
            assert!(
                cross_check(&a, &v).is_none(),
                "unexpected disagreement on {}",
                a.summary()
            );
        }
    }

    #[test]
    fn duato_stays_independent_under_dally_mutation() {
        // With DallyIgnoresWrap the Dally path sees the unwrapped mesh,
        // so the shared-CDG fast path must NOT be taken: Duato has to
        // keep verifying the real torus and still see the wrap cycle.
        let a = design_artifact(
            ebda_core::PartitionSeq::parse("X+ X- | Y+ Y-").unwrap(),
            vec![4, 4],
            vec![true, true],
        );
        let mutated = evaluate(&a, Mutation::DallyIgnoresWrap);
        assert!(mutated.dally.is_deadlock_free(), "mutated dally is blind");
        assert!(!mutated.duato.escape_acyclic, "duato sees the real torus");
    }

    #[test]
    fn a_duato_verdict_apart_from_dally_breaks_its_rule() {
        // No mutation separates Duato's acyclicity from Dally's on a
        // mesh, so flip it by hand: the rule must fire, and only then.
        let a = design_artifact(catalog::fig7b_dyxy(), vec![4, 4], vec![false, false]);
        let mut v = evaluate(&a, Mutation::None);
        assert!(cross_check(&a, &v).is_none());
        v.duato.escape_acyclic = !v.duato.escape_acyclic;
        let d = cross_check(&a, &v).expect("duato apart from dally");
        assert_eq!(d.rule, "duato-vs-dally");
        assert!(d.detail.contains("duato escape-acyclic=false"), "{d}");
    }

    #[test]
    fn mutation_names_round_trip() {
        for m in [
            Mutation::None,
            Mutation::DallyIgnoresWrap,
            Mutation::EbdaSkipsTheorem1,
            Mutation::BruteStopsAfterFirstRound,
        ] {
            assert_eq!(m.to_string().parse(), Ok(m));
        }
        assert!("bogus".parse::<Mutation>().is_err());
    }
}
