//! The corpus regression campaign: check every labeled entry against all
//! four verdict paths, shrink any mismatch, archive the shrunk witness.
//!
//! Unlike the oracle's random differential campaign (which only checks
//! that the paths agree with *each other*), the corpus campaign holds
//! every path to the entry's proven `expected` label — a bug that breaks
//! all four paths in the same direction still gets caught here. It is the
//! corpus source of the one [`ebda_oracle::campaign`] loop: it yields its
//! whole entry list as one batch, each entry held to its
//! [`Expectation::Label`], and checks every entry; the loop shrinks each
//! failure by the rule it broke, and this source archives the witness.
//!
//! Determinism contract: for a fixed entry list and configuration, the
//! report's [`fmt::Display`] output is byte-identical at every thread
//! count. Checks fan out over [`ebda_par::parallel_map`] (index-order
//! merge); shrinking and archiving run serially, in entry order.
//! Wall-clock time lives only in `elapsed_ms`, which Display excludes.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ebda_obs::{prof, CoverageMap};
use ebda_oracle::artifact::Artifact;
use ebda_oracle::campaign::{self, Expectation, Settings, Source, Violation};
use ebda_oracle::shrink::DEFAULT_SHRINK_BUDGET;
use ebda_oracle::verdict::{evaluate, Mutation, Verdicts};

use crate::entry::{CorpusEntry, ExpectedVerdict};
use crate::store;

/// Configuration for one corpus campaign run.
#[derive(Debug, Clone)]
pub struct CorpusCampaignConfig {
    /// Worker threads (0 = the `ebda-par` global default).
    pub threads: usize,
    /// Fault injected into the verdict paths — [`Mutation::None`] for an
    /// honest run, anything else for a self-check that the corpus trips.
    pub mutation: Mutation,
    /// Predicate-evaluation budget for shrinking each mismatch.
    pub shrink_budget: usize,
    /// Where to write shrunk witnesses as new labeled entries, if anywhere.
    pub archive_dir: Option<PathBuf>,
    /// When set, append one [`ebda_obs::ledger`] record per entry, in
    /// entry order — so ledger bytes are identical at any thread count.
    pub ledger: Option<PathBuf>,
    /// When set, accumulate an obligation-level [`ebda_obs::CoverageMap`]
    /// over every entry (merged in entry order) and write it to this path
    /// as canonical JSON.
    pub coverage: Option<PathBuf>,
}

impl Default for CorpusCampaignConfig {
    fn default() -> CorpusCampaignConfig {
        CorpusCampaignConfig {
            threads: 0,
            mutation: Mutation::None,
            shrink_budget: DEFAULT_SHRINK_BUDGET,
            archive_dir: None,
            ledger: None,
            coverage: None,
        }
    }
}

/// One entry whose four-path check disagreed with its label.
#[derive(Debug, Clone)]
pub struct CorpusMismatch {
    /// The offending entry's name.
    pub name: String,
    /// The offending entry's canonical hash.
    pub hash: String,
    /// Which check failed and how.
    pub reason: String,
    /// Summary of the shrunk witness artifact.
    pub shrunk: String,
    /// File name of the archived witness entry, if archiving was enabled
    /// and the witness was new.
    pub archived: Option<String>,
}

/// The deterministic result of a corpus campaign.
#[derive(Debug, Clone, Default)]
pub struct CorpusCampaignReport {
    /// Total entries checked.
    pub entries: usize,
    /// Entries labeled deadlock-free.
    pub free: usize,
    /// Entries labeled deadlocking.
    pub deadlocking: usize,
    /// Entry count per family, sorted by family name.
    pub families: BTreeMap<String, usize>,
    /// Every entry whose check disagreed with its label, in entry order.
    pub mismatches: Vec<CorpusMismatch>,
    /// File names of newly archived witness entries, in entry order.
    pub archived: Vec<String>,
    /// The merged coverage map, when [`CorpusCampaignConfig::coverage`]
    /// was set. Keyed by a content hash over the entry list, so the same
    /// corpus always yields the same key.
    pub coverage: Option<ebda_obs::CoverageMap>,
    /// Wall-clock duration — excluded from [`fmt::Display`] so campaign
    /// output stays byte-comparable across runs and thread counts.
    pub elapsed_ms: u128,
    /// Requested ledger, coverage or witness files that could not be
    /// written; the check results are complete regardless.
    pub write_errors: Vec<String>,
}

impl CorpusCampaignReport {
    /// True when every entry's four verdict paths matched its label.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for CorpusCampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "corpus campaign: {} entries ({} deadlock-free, {} deadlocking), {} families",
            self.entries,
            self.free,
            self.deadlocking,
            self.families.len()
        )?;
        for (family, count) in &self.families {
            writeln!(f, "  family {family}: {count}")?;
        }
        writeln!(f, "mismatches: {}", self.mismatches.len())?;
        for m in &self.mismatches {
            writeln!(f, "  MISMATCH {} [{}]: {}", m.name, m.hash, m.reason)?;
            writeln!(f, "    shrunk witness: {}", m.shrunk)?;
            match &m.archived {
                Some(file) => writeln!(f, "    archived as: {file}")?,
                None => writeln!(f, "    archived as: (not archived)")?,
            }
        }
        if let Some(map) = &self.coverage {
            writeln!(
                f,
                "coverage: {} design-space bins, {} points total, digest {}",
                map.covered("design_bin"),
                map.total_points(),
                map.digest()
            )?;
        }
        Ok(())
    }
}

/// Checks one labeled entry against all four verdict paths. Returns
/// `None` when everything matches the label, or a human-readable reason
/// for the first failed check.
pub fn check_entry(entry: &CorpusEntry, id: u64, mutation: Mutation) -> Option<String> {
    let artifact = entry.to_artifact(id);
    let verdicts = evaluate(&artifact, mutation);
    let violation = expectation(entry).check(&artifact, &verdicts)?;
    Some(violation.to_string())
}

/// What an entry's four paths are held to: its label.
fn expectation(entry: &CorpusEntry) -> Expectation {
    Expectation::Label {
        deadlock_free: entry.expected.is_free(),
        ebda_certified: Some(entry.ebda_certified),
    }
}

/// Runs the regression campaign over `entries`.
///
/// Every entry is checked against all four verdict paths under
/// `cfg.mutation`. Each mismatching entry is shrunk by the rule it broke
/// (a cross-check violation by the cross-check rules, a label mismatch
/// by the label) and, when `cfg.archive_dir` is set, the shrunk witness
/// is written back as a new labeled entry whose `expected`/`ebda_certified`
/// fields are re-proven honestly (always under [`Mutation::None`]) so
/// even witnesses born from an injected fault carry true labels.
pub fn run_corpus_campaign(
    entries: &[CorpusEntry],
    cfg: &CorpusCampaignConfig,
) -> CorpusCampaignReport {
    let started = Instant::now();
    let _campaign = prof::phase("corpus/campaign");
    prof::work("corpus/check", "entries", entries.len() as u64);
    // The map key is a content hash over the entry list: same corpus,
    // same key.
    let key = cfg.coverage.is_some().then(|| {
        let joined: String = entries.iter().map(|e| e.hash_hex()).collect();
        format!(
            "corpus-{}",
            ebda_obs::coverage::fnv1a_hex(joined.as_bytes())
        )
    });
    let settings = Settings {
        threads: cfg.threads,
        mutation: cfg.mutation,
        shrink_budget: cfg.shrink_budget,
        check_phase: Some("corpus/check"),
        ledger: cfg.ledger.as_deref().map(|path| (path, "corpus", 0)),
        coverage: key.map(|key| (key, cfg.coverage.as_deref())),
    };
    let batch = entries.iter().enumerate();
    let batch = batch.map(|(i, e)| (e.to_artifact(i as u64), expectation(e), e.name.clone()));
    let mut source = Entries {
        entries,
        archive_dir: cfg.archive_dir.as_deref(),
        batch: Some(batch.collect()),
        report: CorpusCampaignReport::default(),
    };
    let (coverage, write_errors) = campaign::run(&settings, &mut source);
    let report = &mut source.report;
    report.coverage = coverage;
    report.write_errors.extend(write_errors);
    report.elapsed_ms = started.elapsed().as_millis();
    source.report
}

/// The entry list as a campaign source: one batch, every entry checked.
struct Entries<'a> {
    entries: &'a [CorpusEntry],
    archive_dir: Option<&'a Path>,
    /// The one batch, until it is yielded.
    batch: Option<Vec<(Artifact, Expectation, String)>>,
    report: CorpusCampaignReport,
}

impl Source for Entries<'_> {
    fn next_batch(&mut self) -> Option<Vec<(Artifact, Expectation, String)>> {
        self.batch.take()
    }

    fn tally(&mut self, index: usize, _: &Artifact, _: &Verdicts, _: bool) {
        let entry = &self.entries[index];
        let report = &mut self.report;
        report.entries += 1;
        *report.families.entry(entry.family.clone()).or_insert(0) += 1;
        if entry.expected.is_free() {
            report.free += 1;
            prof::work("corpus/check", "deadlock_free", 1);
        } else {
            report.deadlocking += 1;
            prof::work("corpus/check", "deadlocking", 1);
        }
    }

    /// Labels the shrunk witness honestly and archives it.
    fn caught(
        &mut self,
        index: usize,
        _: &Artifact,
        violation: Violation,
        shrunk: Artifact,
        _: Option<&mut CoverageMap>,
    ) -> ControlFlow<()> {
        let entry = &self.entries[index];
        let reason = violation.to_string();
        let witness = {
            let _shrink = prof::phase("corpus/shrink");
            prof::work("corpus/shrink", "mismatches", 1);
            witness_entry(entry, &reason, &shrunk)
        };
        let mut archived = None;
        if let Some(dir) = self.archive_dir {
            // Calls count attempts, `witnesses` the entries saved.
            let _archive = prof::phase("corpus/archive");
            match store::save_entry(dir, &witness) {
                Ok(file) => {
                    prof::work("corpus/archive", "witnesses", 1);
                    self.report.archived.push(file.clone());
                    archived = Some(file);
                }
                Err(e) => self
                    .report
                    .write_errors
                    .push(format!("archive witness for {}: {e}", entry.name)),
            }
        }
        self.report.mismatches.push(CorpusMismatch {
            name: entry.name.clone(),
            hash: entry.hash_hex(),
            reason,
            shrunk: shrunk.summary(),
            archived,
        });
        ControlFlow::Continue(())
    }
}

/// Builds the labeled corpus entry for a shrunk witness. Labels are
/// re-proven honestly from the shrunk artifact — never inherited from
/// the (possibly wrong, possibly mutation-tainted) source entry.
fn witness_entry(source: &CorpusEntry, reason: &str, shrunk: &Artifact) -> CorpusEntry {
    let verdicts = evaluate(shrunk, Mutation::None);
    let expected = if verdicts.brute.is_deadlock_free() {
        ExpectedVerdict::DeadlockFree
    } else {
        ExpectedVerdict::Deadlocking
    };
    let ebda_certified = verdicts
        .ebda
        .as_ref()
        .map(|v| v.is_deadlock_free())
        .unwrap_or(false);
    let mut witness = CorpusEntry {
        name: String::new(),
        family: "witness".to_string(),
        radix: shrunk.radix.clone(),
        wrap: shrunk.wrap.clone(),
        vcs: shrunk.vcs.clone(),
        universe: shrunk.universe.clone(),
        turns: shrunk.turns.clone(),
        design: shrunk.design.clone(),
        expected,
        ebda_certified,
        provenance: format!(
            "witness shrunk from corpus entry {} [{}]; original failure: {reason}; label re-proven by brute force on the shrunk artifact",
            source.name,
            source.hash_hex()
        ),
    };
    witness.name = format!("witness-{}", witness.hash_hex());
    witness
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    fn small_corpus() -> Vec<CorpusEntry> {
        let mut entries = families::generate_family("mesh-xy");
        entries.truncate(2);
        entries.extend(
            families::generate_family("removed-dateline")
                .into_iter()
                .take(2),
        );
        entries
    }

    #[test]
    fn honest_campaign_is_clean() {
        let entries = small_corpus();
        let report = run_corpus_campaign(&entries, &CorpusCampaignConfig::default());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.entries, 4);
        assert_eq!(report.free, 2);
        assert_eq!(report.deadlocking, 2);
        assert_eq!(report.families.len(), 2);
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let entries = small_corpus();
        let base = run_corpus_campaign(
            &entries,
            &CorpusCampaignConfig {
                threads: 1,
                ..CorpusCampaignConfig::default()
            },
        )
        .to_string();
        for threads in [2, 8] {
            let other = run_corpus_campaign(
                &entries,
                &CorpusCampaignConfig {
                    threads,
                    ..CorpusCampaignConfig::default()
                },
            )
            .to_string();
            assert_eq!(base, other, "threads {threads}");
        }
    }

    #[test]
    fn coverage_map_is_keyed_merged_in_entry_order_and_thread_invariant() {
        let entries = small_corpus();
        let dir = std::env::temp_dir().join(format!("ebda-corpus-cov-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run = |threads: usize, tag: &str| {
            let path = dir.join(format!("cov-{tag}.json"));
            let report = run_corpus_campaign(
                &entries,
                &CorpusCampaignConfig {
                    threads,
                    coverage: Some(path.clone()),
                    ..CorpusCampaignConfig::default()
                },
            );
            (report, std::fs::read_to_string(&path).unwrap())
        };
        let (serial, serial_bytes) = run(1, "1");
        let (parallel, parallel_bytes) = run(8, "8");
        assert_eq!(serial_bytes, parallel_bytes, "coverage depends on threads");
        let map = serial.coverage.as_ref().expect("coverage accumulated");
        assert!(map.key().starts_with("corpus-"), "key: {}", map.key());
        // Every static family is fed by the four verdict paths; only the
        // simulator family stays empty (the corpus campaign never replays).
        for family in [
            "cdg_edge",
            "design_bin",
            "escape_drain",
            "gfp_pair",
            "turn_admitted",
        ] {
            assert!(map.covered(family) > 0, "family {family} uncovered");
        }
        assert_eq!(map.covered("sim_event"), 0);
        assert_eq!(map.digest(), parallel.coverage.as_ref().unwrap().digest());
        assert!(serial.to_string().contains("coverage:"), "{serial}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mislabeled_entry_is_caught_shrunk_and_archived() {
        // Flip a deadlocking entry's label: the campaign must catch it,
        // shrink the counterexample, and archive an honestly labeled
        // witness.
        let mut entries = small_corpus();
        entries[2].expected = ExpectedVerdict::DeadlockFree;
        let dir = std::env::temp_dir().join(format!(
            "ebda-corpus-test-{}-{}",
            std::process::id(),
            entries[2].hash_hex()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let report = run_corpus_campaign(
            &entries,
            &CorpusCampaignConfig {
                archive_dir: Some(dir.clone()),
                ..CorpusCampaignConfig::default()
            },
        );
        assert_eq!(report.mismatches.len(), 1, "{report}");
        let m = &report.mismatches[0];
        assert_eq!(m.name, entries[2].name);
        assert!(m.reason.contains("label deadlock-free"), "{}", m.reason);
        let file = m.archived.clone().expect("witness archived");
        let loaded = store::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].family, "witness");
        assert_eq!(loaded[0].expected, ExpectedVerdict::Deadlocking);
        assert_eq!(loaded[0].file_name(), file);
        // The honest witness must itself pass the check.
        assert!(check_entry(&loaded[0], 0, Mutation::None).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_oracle_fault_trips_the_corpus() {
        // The dally-ignores-wrap mutation makes Dally miss wrap rings:
        // torus entries must catch it.
        let entries: Vec<CorpusEntry> = families::generate_family("removed-dateline")
            .into_iter()
            .take(1)
            .collect();
        let report = run_corpus_campaign(
            &entries,
            &CorpusCampaignConfig {
                mutation: Mutation::DallyIgnoresWrap,
                ..CorpusCampaignConfig::default()
            },
        );
        assert!(!report.is_clean(), "mutation went uncaught: {report}");
    }
}
