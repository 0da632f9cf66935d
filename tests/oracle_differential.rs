//! The differential oracle through the `ebda` facade: a small fixed-seed
//! campaign must stay clean, and a mutated checker must be caught — the
//! same invariants CI enforces with `ebda oracle` at a larger budget.

use ebda::oracle::differential::{run_campaign, CampaignConfig};
use ebda::oracle::verdict::Mutation;
use std::time::Duration;

fn quick(mutation: Mutation) -> CampaignConfig {
    CampaignConfig {
        seed: 7,
        budget: Duration::ZERO,
        min_configs: 60,
        max_configs: 1_000,
        max_nodes: 16,
        mutation,
        journey_sample_rate: 1.0,
        threads: 0,
        ledger: None,
        coverage: None,
        coverage_guided: false,
    }
}

#[test]
fn facade_campaign_is_clean_at_the_ci_seed() {
    let report = run_campaign(&quick(Mutation::None));
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.configs, 60);
    assert!(report.deadlock_free > 0 && report.deadlocking > 0);
}

#[test]
fn facade_campaign_catches_a_broken_checker() {
    let cfg = CampaignConfig {
        min_configs: 1_000,
        ..quick(Mutation::DallyIgnoresWrap)
    };
    let report = run_campaign(&cfg);
    let caught = report
        .caught
        .expect("the broken Dally checker must be caught");
    assert_eq!(caught.disagreement.rule, "dally-vs-brute");
    let replay = caught.replay.expect("shrunk witness must replay");
    assert!(replay.deadlocked);
}

#[test]
fn a_brute_searcher_that_stops_after_one_round_is_caught_at_once() {
    // The rewritten searcher shown catchable: cut off after its first
    // pruning round it keeps pairs a later round discards, calls a free
    // design deadlocked, and collides with Dally on the very first
    // artifact of the seed-7 stream (a 3x5 mesh partitioning that takes
    // 32 sweeps to drain). The pinned size is where the rule first fires.
    let report = run_campaign(&quick(Mutation::BruteStopsAfterFirstRound));
    assert_eq!(report.configs, 1, "{report}");
    let caught = report.caught.expect("the broken searcher must be caught");
    assert_eq!(caught.disagreement.rule, "dally-vs-brute");
    // The shrunk artifact is honestly deadlock-free, so the replay — which
    // floods it through the real searcher's eyes — drains.
    assert!(!caught.replay.expect("a free relation replays").deadlocked);
}
