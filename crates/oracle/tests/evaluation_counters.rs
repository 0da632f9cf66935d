//! Clock-free pins of "one CDG per artifact": a campaign that writes a
//! ledger and a coverage map builds each artifact's graph once — Dally's
//! report, Duato's acyclicity half, the ordering certificate and the
//! `cdg_edge` coverage family all read the graph `Evaluation::of` built.
//! The parent built it three times with evidence on (Dally,
//! `channel_ordering`, `artifact_coverage`), four under
//! `dally-ignores-wrap` on a wrapped artifact.
//!
//! Counted as calls of the `cdg/csr_build` profiler phase, which every
//! graph construction goes through; deterministic, so gated by equality.
//!
//! One test function: the profiler is process-global.

use ebda_corpus::{run_corpus_campaign, CorpusCampaignConfig};
use ebda_obs::prof;
use ebda_oracle::{run_campaign, CampaignConfig, Evaluation, Generator, Mutation};
use std::path::PathBuf;
use std::time::Duration;

const ARTIFACTS: usize = 40;

/// `cdg/csr_build` calls made by `body`.
fn csr_builds(body: impl FnOnce()) -> u64 {
    prof::reset();
    prof::set_enabled(true);
    body();
    prof::set_enabled(false);
    let phases = prof::snapshot().phases;
    phases.get("cdg/csr_build").map_or(0, |stat| stat.calls)
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ebda-eval-counters-{tag}-{}", std::process::id()))
}

#[test]
fn a_campaign_with_evidence_builds_one_graph_per_artifact() {
    let (ledger, coverage) = (temp("ledger"), temp("coverage"));
    let cleanup = || {
        let _ = std::fs::remove_file(&ledger);
        let _ = std::fs::remove_file(&coverage);
    };
    cleanup();

    let builds = csr_builds(|| {
        let report = run_campaign(&CampaignConfig {
            seed: 7,
            budget: Duration::ZERO,
            min_configs: ARTIFACTS,
            max_nodes: 36,
            threads: 1,
            ledger: Some(ledger.clone()),
            coverage: Some(coverage.clone()),
            ..CampaignConfig::default()
        });
        assert!(report.is_clean() && report.write_errors.is_empty());
        assert_eq!(report.configs, ARTIFACTS);
    });
    assert_eq!(builds, ARTIFACTS as u64, "oracle campaign");
    cleanup();

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/seed");
    let entries = ebda_corpus::store::load_dir(&dir).expect("corpus/seed loads");
    let builds = csr_builds(|| {
        let report = run_corpus_campaign(
            &entries,
            &CorpusCampaignConfig {
                threads: 1,
                ledger: Some(ledger.clone()),
                coverage: Some(coverage.clone()),
                ..CorpusCampaignConfig::default()
            },
        );
        assert!(report.mismatches.is_empty() && report.write_errors.is_empty());
    });
    assert_eq!(builds, entries.len() as u64, "corpus campaign");
    cleanup();

    // What a campaign worker does per artifact, under the mutation that
    // shows Dally a second graph: the real one plus, on a wrapped
    // artifact, the unwrapped one. (A campaign would stop and shrink at
    // the first disagreement; the per-artifact work is what is pinned.)
    let mut generator = Generator::with_max_nodes(7, 36);
    let stream: Vec<_> = (0..ARTIFACTS).map(|_| generator.next_artifact()).collect();
    let wrapped = stream.iter().filter(|a| a.wraps()).count();
    assert!(wrapped > 5 && wrapped < ARTIFACTS, "{wrapped} wrapped");
    let builds = csr_builds(|| {
        for artifact in &stream {
            let evaluation = Evaluation::of(artifact, Mutation::DallyIgnoresWrap);
            std::hint::black_box((evaluation.provenance(), evaluation.coverage()));
        }
    });
    assert_eq!(builds, (ARTIFACTS + wrapped) as u64, "dally-ignores-wrap");
    assert!(builds <= 2 * ARTIFACTS as u64);
}
