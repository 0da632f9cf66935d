//! End-to-end run-ledger guarantees: both campaign kinds write
//! byte-identical ledgers at every thread count, and every appended
//! record's certificate or witness passes the independent checker. The
//! process half (`check-cert`, `ledger list`, `explain`, a tampered
//! verdict) is `tests/cli.rs::verify_ledger_stamps_the_revision_git_prints`.

use ebda_corpus::{families, run_corpus_campaign, CorpusCampaignConfig, CorpusEntry};
use ebda_obs::ledger;
use ebda_oracle::differential::{run_campaign, CampaignConfig};
use ebda_oracle::verdict::Mutation;
use ebda_oracle::Provenance;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ebda-ledger-det-{}-{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Every record must re-validate without any prover: hash and verdict
/// agree with the embedded provenance, and the evidence checks out.
fn assert_all_records_check(path: &Path, expected: usize) {
    let records = ledger::read(path).unwrap();
    assert_eq!(
        records.len(),
        expected,
        "record count in {}",
        path.display()
    );
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.index, i as u64, "indices are append-ordered");
        let prov =
            Provenance::from_json(&rec.provenance).unwrap_or_else(|e| panic!("record #{i}: {e}"));
        assert_eq!(rec.hash, prov.hash_hex(), "record #{i} hash");
        assert_eq!(rec.verdict, prov.verdict_str(), "record #{i} verdict");
        prov.check()
            .unwrap_or_else(|e| panic!("record #{i} failed the checker: {e}"));
    }
}

#[test]
fn oracle_campaign_ledger_is_byte_identical_across_thread_counts() {
    let cfg = |threads: usize, ledger: PathBuf| CampaignConfig {
        seed: 7,
        budget: Duration::ZERO,
        min_configs: 40,
        max_configs: 40,
        max_nodes: 16,
        mutation: Mutation::None,
        journey_sample_rate: 1.0,
        threads,
        ledger: Some(ledger),
        coverage: None,
        coverage_guided: false,
    };
    let serial = tmp("oracle-1");
    let report = run_campaign(&cfg(1, serial.clone()));
    assert!(report.is_clean(), "{report}");
    assert_all_records_check(&serial, 40);

    let parallel = tmp("oracle-8");
    run_campaign(&cfg(8, parallel.clone()));
    assert_eq!(
        ledger::diff(&serial, &parallel).unwrap(),
        None,
        "oracle ledger bytes depend on the thread count"
    );
    std::fs::remove_file(&serial).ok();
    std::fs::remove_file(&parallel).ok();
}

#[test]
fn corpus_campaign_ledger_is_byte_identical_across_thread_counts() {
    let mut entries: Vec<CorpusEntry> = families::generate_family("mesh-xy");
    entries.truncate(2);
    entries.extend(
        families::generate_family("removed-dateline")
            .into_iter()
            .take(2),
    );

    let serial = tmp("corpus-1");
    let report = run_corpus_campaign(
        &entries,
        &CorpusCampaignConfig {
            threads: 1,
            ledger: Some(serial.clone()),
            ..CorpusCampaignConfig::default()
        },
    );
    assert!(report.is_clean(), "{report}");
    assert_all_records_check(&serial, entries.len());

    let parallel = tmp("corpus-8");
    run_corpus_campaign(
        &entries,
        &CorpusCampaignConfig {
            threads: 8,
            ledger: Some(parallel.clone()),
            ..CorpusCampaignConfig::default()
        },
    );
    assert_eq!(
        ledger::diff(&serial, &parallel).unwrap(),
        None,
        "corpus ledger bytes depend on the thread count"
    );
    std::fs::remove_file(&serial).ok();
    std::fs::remove_file(&parallel).ok();
}

#[test]
fn appends_accumulate_across_campaigns() {
    // One file fed by both campaign kinds: indices keep counting up and
    // everything still checks — the append-only contract.
    let path = tmp("mixed");
    run_campaign(&CampaignConfig {
        seed: 11,
        budget: Duration::ZERO,
        min_configs: 5,
        max_configs: 5,
        max_nodes: 12,
        mutation: Mutation::None,
        journey_sample_rate: 1.0,
        threads: 0,
        ledger: Some(path.clone()),
        coverage: None,
        coverage_guided: false,
    });
    let entries: Vec<CorpusEntry> = families::generate_family("mesh-xy")
        .into_iter()
        .take(2)
        .collect();
    run_corpus_campaign(
        &entries,
        &CorpusCampaignConfig {
            ledger: Some(path.clone()),
            ..CorpusCampaignConfig::default()
        },
    );
    assert_all_records_check(&path, 7);
    let records = ledger::read(&path).unwrap();
    assert_eq!(records[4].source, "oracle");
    assert_eq!(records[5].source, "corpus");
    std::fs::remove_file(&path).ok();
}
