//! The corpus regression campaign: check every labeled entry against all
//! four verdict paths, shrink any mismatch, archive the shrunk witness.
//!
//! Unlike the oracle's random differential campaign (which only checks
//! that the paths agree with *each other*), the corpus campaign holds
//! every path to the entry's proven `expected` label — a bug that breaks
//! all four paths in the same direction still gets caught here.
//!
//! Determinism contract: for a fixed entry list and configuration, the
//! report's [`fmt::Display`] output is byte-identical at every thread
//! count. Checks fan out over [`ebda_par::parallel_map`] (index-order
//! merge); shrinking and archiving run serially afterwards, in entry
//! order. Wall-clock time lives only in `elapsed_ms`, which Display
//! excludes.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

use ebda_obs::prof;
use ebda_oracle::artifact::Artifact;
use ebda_oracle::provenance::Provenance;
use ebda_oracle::shrink::{shrink, DEFAULT_SHRINK_BUDGET};
use ebda_oracle::verdict::{cross_check, evaluate, Evaluation, Mutation, Verdicts};

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
#[derive(Debug, Clone)]
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
    mismatch_reason(
        &artifact,
        entry.expected,
        Some(entry.ebda_certified),
        &verdicts,
    )
}

/// The label check on a bare artifact with already-computed verdicts.
/// `ebda_certified` is compared only when the artifact still carries a
/// design (shrinking may drop it).
fn mismatch_reason(
    artifact: &Artifact,
    expected: ExpectedVerdict,
    ebda_certified: Option<bool>,
    verdicts: &Verdicts,
) -> Option<String> {
    if let Some(d) = cross_check(artifact, verdicts) {
        return Some(format!("cross-check violation: {d}"));
    }
    let want_free = expected.is_free();
    if verdicts.brute.is_deadlock_free() != want_free {
        return Some(format!(
            "brute disagrees with label {expected}: {}",
            verdicts.brute
        ));
    }
    if verdicts.dally.is_deadlock_free() != want_free {
        return Some(format!(
            "dally disagrees with label {expected}: {}",
            verdicts.dally
        ));
    }
    if verdicts.duato.escape_acyclic != want_free {
        return Some(format!(
            "duato disagrees with label {expected}: {}",
            verdicts.duato
        ));
    }
    if let (Some(v), Some(certified)) = (&verdicts.ebda, ebda_certified) {
        if v.is_deadlock_free() != certified {
            return Some(format!(
                "ebda verdict contradicts ebda_certified={certified}: {v}"
            ));
        }
    }
    None
}

/// Runs the regression campaign over `entries`.
///
/// Every entry is checked against all four verdict paths under
/// `cfg.mutation`. Each mismatching entry is then shrunk (the predicate
/// being "the shrunk artifact still disagrees with the label") and, when
/// `cfg.archive_dir` is set, the shrunk witness is written back as a new
/// labeled entry whose `expected`/`ebda_certified` fields are re-proven
/// honestly (always under [`Mutation::None`]) so even witnesses born
/// from an injected fault carry true labels.
pub fn run_corpus_campaign(
    entries: &[CorpusEntry],
    cfg: &CorpusCampaignConfig,
) -> CorpusCampaignReport {
    let started = Instant::now();
    let _campaign = prof::phase("corpus/campaign");

    let with_ledger = cfg.ledger.is_some();
    let with_coverage = cfg.coverage.is_some();
    #[allow(clippy::type_complexity)]
    let checks: Vec<(
        Option<String>,
        Option<Provenance>,
        Option<ebda_obs::CoverageMap>,
    )> = {
        let _check = prof::phase("corpus/check");
        prof::work("corpus/check", "entries", entries.len() as u64);
        ebda_par::parallel_map(cfg.threads, entries, |i, entry| {
            let artifact = entry.to_artifact(i as u64);
            let evaluation = Evaluation::of(&artifact, cfg.mutation);
            let reason = mismatch_reason(
                &artifact,
                entry.expected,
                Some(entry.ebda_certified),
                &evaluation.verdicts,
            );
            let prov = with_ledger.then(|| evaluation.provenance());
            let cov = with_coverage.then(|| evaluation.coverage());
            (reason, prov, cov)
        })
    };

    // Per-entry coverage was computed in parallel above; the merge runs
    // here on the coordinator, in entry order, so the merged map — and
    // its digest — is byte-identical at every thread count. The map key
    // is a content hash over the entry list: same corpus, same key.
    let coverage_map = with_coverage.then(|| {
        let joined: String = entries.iter().map(|e| e.hash_hex()).collect();
        let mut map = ebda_obs::CoverageMap::new(format!(
            "corpus-{}",
            ebda_obs::coverage::fnv1a_hex(joined.as_bytes())
        ));
        for (_, _, cov) in &checks {
            if let Some(cov) = cov {
                map.merge(cov);
            }
        }
        map
    });

    let mut report = CorpusCampaignReport {
        entries: entries.len(),
        free: entries.iter().filter(|e| e.expected.is_free()).count(),
        deadlocking: entries.iter().filter(|e| !e.expected.is_free()).count(),
        families: BTreeMap::new(),
        mismatches: Vec::new(),
        archived: Vec::new(),
        coverage: None,
        elapsed_ms: 0,
        write_errors: Vec::new(),
    };
    for entry in entries {
        *report.families.entry(entry.family.clone()).or_insert(0) += 1;
    }
    prof::work("corpus/check", "deadlock_free", report.free as u64);
    prof::work("corpus/check", "deadlocking", report.deadlocking as u64);

    if let Some(path) = &cfg.ledger {
        // Parallel checks were merged in index order, so the records —
        // and therefore the ledger bytes — are entry-ordered regardless
        // of the thread count.
        let git_rev = ebda_obs::ledger::git_rev();
        let records: Vec<ebda_obs::LedgerRecord> = entries
            .iter()
            .zip(&checks)
            .filter_map(|(entry, (_, prov, cov))| {
                let prov = prov.as_ref()?;
                Some(prov.ledger_record(
                    "corpus",
                    entry.name.clone(),
                    git_rev.clone(),
                    0,
                    cov.as_ref(),
                ))
            })
            .collect();
        if let Err(e) = ebda_obs::ledger::append(path, &records) {
            report.write_errors.push(format!("ledger append: {e}"));
        }
    }

    for (i, (reason, _, _)) in checks.into_iter().enumerate() {
        let Some(reason) = reason else { continue };
        let entry = &entries[i];
        let shrunk = {
            let _shrink = prof::phase("corpus/shrink");
            prof::work("corpus/shrink", "mismatches", 1);
            let artifact = entry.to_artifact(i as u64);
            let still_mismatches = |candidate: &Artifact| {
                let verdicts = evaluate(candidate, cfg.mutation);
                mismatch_reason(candidate, entry.expected, None, &verdicts).is_some()
            };
            shrink(&artifact, still_mismatches, cfg.shrink_budget)
        };
        let witness = witness_entry(entry, &reason, &shrunk);
        let mut archived = None;
        if let Some(dir) = &cfg.archive_dir {
            // Calls count attempts, `witnesses` the entries saved.
            let _archive = prof::phase("corpus/archive");
            match store::save_entry(dir, &witness) {
                Ok(file) => {
                    prof::work("corpus/archive", "witnesses", 1);
                    report.archived.push(file.clone());
                    archived = Some(file);
                }
                Err(e) => report
                    .write_errors
                    .push(format!("archive witness for {}: {e}", entry.name)),
            }
        }
        report.mismatches.push(CorpusMismatch {
            name: entry.name.clone(),
            hash: entry.hash_hex(),
            reason,
            shrunk: shrunk.summary(),
            archived,
        });
    }

    if let Some(map) = coverage_map {
        map.publish_metrics();
        if let Some(path) = &cfg.coverage {
            if let Err(e) = map.write_file(path) {
                report.write_errors.push(format!("coverage write: {e}"));
            }
        }
        report.coverage = Some(map);
    }

    report.elapsed_ms = started.elapsed().as_millis();
    report
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
