//! The one campaign loop: check batches of artifacts against what each is
//! expected to satisfy, shrink every failure by the rule it broke, and
//! keep the evidence.
//!
//! [`run`] owns every step the two campaigns share: one
//! [`ebda_par::parallel_map`] per batch; in stream order, on the calling
//! thread, the tally, the coverage merge and the ledger records, so their
//! bytes are identical at every thread count; the shrink of each failure;
//! and the ledger append, the coverage publish and write at the end. The
//! [`Source`] decides the batching and the stop. The oracle's generator
//! stream ([`crate::differential::run_campaign`]) yields 16-artifact
//! batches held to [`Expectation::Agreement`] and stops at the first
//! violation; the corpus (`ebda_corpus::run_corpus_campaign`) yields its
//! entry list as one batch held to [`Expectation::Label`] and checks
//! every entry.

use crate::artifact::Artifact;
use crate::shrink::shrink;
use crate::verdict::{cross_check, evaluate, Disagreement, Evaluation, Mutation, Verdicts};
use ebda_obs::{prof, CoverageMap};
use std::fmt;
use std::ops::ControlFlow;
use std::path::Path;

/// What a checked artifact is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The verdict paths must agree with each other (the generator stream).
    Agreement,
    /// The paths must agree and match a proven label (a corpus entry).
    Label {
        /// Whether the label says deadlock-free.
        deadlock_free: bool,
        /// The EbDa verdict the label records, compared when the artifact
        /// carries a design; `None` leaves it unchecked.
        ebda_certified: Option<bool>,
    },
}

/// The rule a checked artifact broke.
#[derive(Debug, Clone)]
pub enum Violation {
    /// Two verdict paths contradict each other (see [`cross_check`]).
    Disagreement(Disagreement),
    /// The paths agree with each other but not with the label: which
    /// path contradicts it, and how.
    Label(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Disagreement(d) => write!(f, "cross-check violation: {d}"),
            Violation::Label(reason) => f.write_str(reason),
        }
    }
}

impl Expectation {
    /// The first rule `verdicts` break: the cross-check rules, then the
    /// label.
    pub fn check(self, artifact: &Artifact, verdicts: &Verdicts) -> Option<Violation> {
        if let Some(d) = cross_check(artifact, verdicts) {
            return Some(Violation::Disagreement(d));
        }
        match self {
            Expectation::Agreement => None,
            Expectation::Label {
                deadlock_free,
                ebda_certified,
            } => label_mismatch(deadlock_free, ebda_certified, verdicts).map(Violation::Label),
        }
    }
}

/// The name of a label: `deadlock-free` or `deadlocking`.
pub fn label_name(deadlock_free: bool) -> &'static str {
    if deadlock_free {
        "deadlock-free"
    } else {
        "deadlocking"
    }
}

/// Which path contradicts a label, and how.
fn label_mismatch(
    deadlock_free: bool,
    ebda_certified: Option<bool>,
    verdicts: &Verdicts,
) -> Option<String> {
    let label = label_name(deadlock_free);
    let (brute, dally, duato) = (&verdicts.brute, &verdicts.dally, &verdicts.duato);
    let paths: [(&str, bool, &dyn fmt::Display); 3] = [
        ("brute", brute.is_deadlock_free(), brute),
        ("dally", dally.is_deadlock_free(), dally),
        ("duato", duato.escape_acyclic, duato),
    ];
    if let Some((path, _, verdict)) = paths.iter().find(|(_, free, _)| *free != deadlock_free) {
        return Some(format!("{path} disagrees with label {label}: {verdict}"));
    }
    let ebda = verdicts.ebda.as_ref()?;
    let certified = ebda_certified?;
    (ebda.is_deadlock_free() != certified)
        .then(|| format!("ebda verdict contradicts ebda_certified={certified}: {ebda}"))
}

/// Where a campaign's artifacts come from, and where its results go.
pub trait Source {
    /// The next batch to check, each artifact with what it is held to and
    /// the name of its ledger record, or `None` when the campaign is over.
    fn next_batch(&mut self) -> Option<Vec<(Artifact, Expectation, String)>>;

    /// Tallies the artifact at stream position `index`, in stream order;
    /// `new_bin` when it opened a design-space bin of the coverage map.
    fn tally(&mut self, index: usize, artifact: &Artifact, verdicts: &Verdicts, new_bin: bool);

    /// Takes the artifact at `index`, the rule it broke and its shrunk
    /// form; may add coverage of its own to the campaign map.
    /// [`ControlFlow::Break`] ends the campaign.
    fn caught(
        &mut self,
        index: usize,
        artifact: &Artifact,
        violation: Violation,
        shrunk: Artifact,
        coverage: Option<&mut CoverageMap>,
    ) -> ControlFlow<()>;
}

/// How a campaign checks, shrinks and keeps its evidence.
#[derive(Debug, Clone)]
pub struct Settings<'a> {
    /// Worker threads; 0 resolves via [`ebda_par::threads`].
    pub threads: usize,
    /// Fault injected into the verdict paths (see [`Mutation`]).
    pub mutation: Mutation,
    /// Predicate evaluations each shrink may spend.
    pub shrink_budget: usize,
    /// The profiler phase that times each batch's parallel check, if any.
    /// It times the check alone: a phase opened around all of [`run`]
    /// would also hold the shrinks and the source's [`Source::caught`]
    /// work, which the corpus times in sibling phases of its own, and so
    /// count that wall time twice in their parent's self time.
    pub check_phase: Option<&'static str>,
    /// The ledger to append one record per tallied artifact to, with the
    /// records' source and seed.
    pub ledger: Option<(&'a Path, &'static str, u64)>,
    /// The key of the coverage map to accumulate, and the file to write
    /// it to.
    pub coverage: Option<(String, Option<&'a Path>)>,
}

/// Runs one campaign over the batches of `source` (see the module docs).
/// Returns the merged coverage map, when [`Settings::coverage`] was set,
/// and the ledger or coverage file that could not be written, if any.
pub fn run(settings: &Settings, source: &mut impl Source) -> (Option<CoverageMap>, Vec<String>) {
    let git_rev = settings.ledger.map(|_| ebda_obs::ledger::git_rev());
    let mut records = Vec::new();
    let mut coverage = settings
        .coverage
        .as_ref()
        .map(|(key, _)| CoverageMap::new(key.clone()));
    let with_coverage = coverage.is_some();
    let mut checked = 0;
    'campaign: while let Some(batch) = source.next_batch() {
        let evaluations = {
            let _check = settings.check_phase.map(prof::phase);
            ebda_par::parallel_map(settings.threads, &batch, |_, (artifact, expectation, _)| {
                let e = Evaluation::of(artifact, settings.mutation);
                let prov = settings.ledger.is_some().then(|| e.provenance());
                let cov = with_coverage.then(|| e.coverage());
                let violation = expectation.check(artifact, &e.verdicts);
                (e.verdicts, prov, cov, violation)
            })
        };
        // Past a violation that ends the campaign, the rest of the batch
        // was checked speculatively: it is not tallied, exactly as if
        // never generated.
        for ((artifact, expectation, name), (verdicts, prov, cov, violation)) in
            batch.into_iter().zip(evaluations)
        {
            let index = checked;
            checked += 1;
            let mut new_bin = false;
            if let (Some(map), Some(cov)) = (coverage.as_mut(), &cov) {
                // An artifact's map holds its design bin as the one point
                // of that family.
                let bins = map.covered("design_bin");
                map.merge(cov);
                new_bin = map.covered("design_bin") > bins;
            }
            source.tally(index, &artifact, &verdicts, new_bin);
            if let (Some(prov), Some((_, kind, seed))) = (prov, settings.ledger) {
                records.push(prov.ledger_record(
                    kind,
                    name,
                    git_rev.clone().unwrap_or_default(),
                    seed,
                    cov.as_ref(),
                ));
            }
            let Some(violation) = violation else { continue };
            let shrunk = {
                let _shrink = prof::phase("oracle/shrink");
                shrink(
                    &artifact,
                    |c| still_breaks(expectation, &violation, c, settings.mutation),
                    settings.shrink_budget,
                )
            };
            if source
                .caught(index, &artifact, violation, shrunk, coverage.as_mut())
                .is_break()
            {
                break 'campaign;
            }
        }
    }

    let mut write_errors = Vec::new();
    if let Some((path, _, _)) = settings.ledger {
        if let Err(e) = ebda_obs::ledger::append(path, &records) {
            write_errors.push(format!("ledger append: {e}"));
        }
    }
    if let Some(map) = &coverage {
        map.publish_metrics();
        if let Some((_, Some(path))) = &settings.coverage {
            if let Err(e) = map.write_file(path) {
                write_errors.push(format!("coverage write: {e}"));
            }
        }
    }
    (coverage, write_errors)
}

/// The shrink predicate of the rule `violation` names: a candidate
/// replaces the artifact only while it breaks that same rule. A label's
/// EbDa half is left out, since shrinking may drop the design it names.
fn still_breaks(
    expectation: Expectation,
    violation: &Violation,
    candidate: &Artifact,
    mutation: Mutation,
) -> bool {
    let verdicts = evaluate(candidate, mutation);
    match (violation, expectation) {
        (Violation::Label(_), Expectation::Label { deadlock_free, .. }) => {
            label_mismatch(deadlock_free, None, &verdicts).is_some()
        }
        _ => cross_check(candidate, &verdicts).is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactKind;

    /// A one-way wrap ring on a 3x3 torus row: it deadlocks, and
    /// `dally-ignores-wrap` makes Dally miss it.
    fn ring() -> Artifact {
        Artifact {
            id: 0,
            kind: ArtifactKind::ChannelOrdering,
            radix: vec![3, 3],
            wrap: vec![true, false],
            vcs: vec![1, 1],
            universe: ebda_core::parse_channels("X+").unwrap(),
            turns: ebda_core::TurnSet::new(),
            design: None,
        }
    }

    fn label(deadlock_free: bool) -> Expectation {
        Expectation::Label {
            deadlock_free,
            ebda_certified: None,
        }
    }

    /// Yields its batches in order, records what the loop hands back and
    /// ends the campaign at the first failure when `stop` is set.
    struct Batches {
        batches: Vec<Vec<(Artifact, Expectation, String)>>,
        stop: bool,
        tallied: Vec<usize>,
        caught: Vec<(usize, Violation, Artifact)>,
    }

    impl Batches {
        fn new(batches: Vec<Vec<(Artifact, Expectation)>>, stop: bool) -> Batches {
            let named = batches.into_iter().map(|batch| {
                let batch = batch.into_iter();
                batch.map(|(a, e)| (a.clone(), e, a.summary())).collect()
            });
            Batches {
                batches: named.rev().collect(),
                stop,
                tallied: Vec::new(),
                caught: Vec::new(),
            }
        }
    }

    impl Source for Batches {
        fn next_batch(&mut self) -> Option<Vec<(Artifact, Expectation, String)>> {
            self.batches.pop()
        }

        fn tally(&mut self, index: usize, _: &Artifact, _: &Verdicts, _: bool) {
            self.tallied.push(index);
        }

        fn caught(
            &mut self,
            index: usize,
            _: &Artifact,
            violation: Violation,
            shrunk: Artifact,
            _: Option<&mut CoverageMap>,
        ) -> ControlFlow<()> {
            self.caught.push((index, violation, shrunk));
            if self.stop {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        }
    }

    fn settings(mutation: Mutation) -> Settings<'static> {
        Settings {
            threads: 2,
            mutation,
            shrink_budget: crate::shrink::DEFAULT_SHRINK_BUDGET,
            check_phase: None,
            ledger: None,
            coverage: Some(("campaign-test".to_string(), None)),
        }
    }

    #[test]
    fn check_applies_the_cross_check_rules_before_the_label() {
        let ring = ring();
        let honest = evaluate(&ring, Mutation::None);
        assert!(Expectation::Agreement.check(&ring, &honest).is_none());
        assert!(label(false).check(&ring, &honest).is_none());
        let wrong = label(true)
            .check(&ring, &honest)
            .expect("label contradicted");
        assert!(matches!(wrong, Violation::Label(_)));
        assert!(
            wrong
                .to_string()
                .starts_with("brute disagrees with label deadlock-free"),
            "{wrong}"
        );
        // A mutated Dally contradicts brute force whatever the label says.
        let mutated = evaluate(&ring, Mutation::DallyIgnoresWrap);
        for expectation in [Expectation::Agreement, label(false), label(true)] {
            let violation = expectation.check(&ring, &mutated).expect("disagreement");
            assert!(
                matches!(violation, Violation::Disagreement(_)),
                "{violation}"
            );
        }
    }

    #[test]
    fn each_failure_is_shrunk_by_the_rule_it_broke() {
        // A cross-check violation on a correctly labeled deadlocking
        // entry keeps its wrap ring: a candidate that drops the wrap is
        // deadlock-free, which still contradicts the label but no longer
        // trips the mutation.
        let mut source = Batches::new(vec![vec![(ring(), label(false))]], false);
        run(&settings(Mutation::DallyIgnoresWrap), &mut source);
        let (_, violation, shrunk) = &source.caught[0];
        assert!(matches!(violation, Violation::Disagreement(_)));
        assert!(shrunk.wrap.contains(&true), "{}", shrunk.summary());
        let verdicts = evaluate(shrunk, Mutation::DallyIgnoresWrap);
        assert!(cross_check(shrunk, &verdicts).is_some());

        // A label mismatch is shrunk by the label: the witness still
        // deadlocks, against the deadlock-free label.
        let mut source = Batches::new(vec![vec![(ring(), label(true))]], false);
        run(&settings(Mutation::None), &mut source);
        let (_, violation, shrunk) = &source.caught[0];
        assert!(matches!(violation, Violation::Label(_)));
        assert!(!evaluate(shrunk, Mutation::None).brute.is_deadlock_free());
    }

    #[test]
    fn the_source_decides_whether_a_failure_ends_the_campaign() {
        let batches = || {
            let mut clean = ring();
            clean.wrap = vec![false, false];
            vec![
                vec![(clean.clone(), label(true)), (ring(), label(true))],
                vec![(ring(), label(true)), (clean, label(true))],
            ]
        };
        // Checking every artifact: every batch is tallied in stream order
        // and every failure is caught.
        let mut every = Batches::new(batches(), false);
        let (coverage, errors) = run(&settings(Mutation::None), &mut every);
        assert_eq!(every.tallied, [0, 1, 2, 3]);
        let caught: Vec<usize> = every.caught.iter().map(|c| c.0).collect();
        assert_eq!(caught, [1, 2]);
        assert!(coverage.unwrap().covered("design_bin") > 0);
        assert!(errors.is_empty());
        // Stopping at the first failure: the rest of its batch is not
        // tallied and no further batch is drawn.
        let mut first = Batches::new(batches(), true);
        run(&settings(Mutation::None), &mut first);
        assert_eq!(first.tallied, [0, 1]);
        assert_eq!(first.caught.len(), 1);
        assert_eq!(first.batches.len(), 1);
    }
}
