//! End-to-end coverage-map guarantees of both campaign kinds: the same
//! bytes at any thread count, a floor under every family, guided
//! generation reaching more of the design space than blind generation,
//! and a merge whose families do not depend on the order of its inputs.
//!
//! The floors sit about 20 % under the counts the campaigns reach today.
//! They compare typed counts, so unlike a shell pipeline that could hand
//! an empty string to `test` they need no "an impossible floor must
//! fail" probe to show that they can fail.

use ebda_corpus::{run_corpus_campaign, store, CorpusCampaignConfig};
use ebda_obs::coverage::{CoverageMap, FAMILIES};
use ebda_oracle::differential::{run_campaign, CampaignConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Family, oracle floor, corpus floor.
const FLOORS: [(&str, usize, usize); 7] = [
    ("cdg_edge", 250, 110),
    ("design_bin", 60, 28),
    ("escape_drain", 24, 34),
    ("gfp_pair", 450, 290),
    ("obligation", 10, 25),
    ("turn_admitted", 450, 290),
    ("turn_denied", 450, 250),
];

/// A fresh file name: the two tests run side by side and both write an
/// oracle map at two threads.
fn tmp() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let name = format!("ebda-coverage-det-{}-{n}.json", std::process::id());
    std::env::temp_dir().join(name)
}

/// Reads and removes the map file a campaign wrote.
fn take(path: &Path) -> String {
    let bytes = std::fs::read_to_string(path).expect("coverage map written");
    std::fs::remove_file(path).ok();
    bytes
}

/// The map file of the seed-7 oracle campaign: 200 artifacts on at most
/// 16 nodes.
fn oracle_map(threads: usize, coverage_guided: bool) -> String {
    let path = tmp();
    let report = run_campaign(&CampaignConfig {
        seed: 7,
        budget: Duration::ZERO,
        min_configs: 200,
        max_configs: 200,
        max_nodes: 16,
        threads,
        coverage: Some(path.clone()),
        coverage_guided,
        ..CampaignConfig::default()
    });
    assert!(report.is_clean(), "{report}");
    take(&path)
}

/// The map file of the campaign over the checked-in seed corpus.
fn corpus_map(threads: usize) -> String {
    let seed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/seed");
    let entries = store::load_dir(&seed).expect("corpus/seed loads");
    let path = tmp();
    let cfg = CorpusCampaignConfig {
        threads,
        coverage: Some(path.clone()),
        ..CorpusCampaignConfig::default()
    };
    let report = run_corpus_campaign(&entries, &cfg);
    assert!(report.is_clean(), "{report}");
    take(&path)
}

fn parse(bytes: &str) -> CoverageMap {
    CoverageMap::from_json(bytes.trim_end()).expect("canonical coverage map")
}

#[test]
fn coverage_maps_are_byte_identical_at_any_thread_count() {
    let oracle = oracle_map(1, false);
    assert_eq!(
        oracle_map(2, false),
        oracle,
        "oracle map depends on threads"
    );
    let corpus = corpus_map(1);
    assert_eq!(corpus_map(8), corpus, "corpus map depends on threads");
}

#[test]
fn floors_hold_guidance_pays_and_merge_order_does_not_matter() {
    let oracle = parse(&oracle_map(2, false));
    let corpus = parse(&corpus_map(2));
    for (family, oracle_floor, corpus_floor) in FLOORS {
        for (map, floor, what) in [
            (&oracle, oracle_floor, "oracle"),
            (&corpus, corpus_floor, "corpus"),
        ] {
            let points = map.covered(family);
            assert!(
                points >= floor,
                "{what} {family}: {points} points, floor {floor}"
            );
        }
    }

    // Same budget, same seed: guided generation opens more design bins.
    let guided = parse(&oracle_map(2, true));
    let (blind_bins, guided_bins) = (oracle.covered("design_bin"), guided.covered("design_bin"));
    assert!(
        guided_bins > blind_bins,
        "guided {guided_bins} vs blind {blind_bins}"
    );

    let merged = |maps: [&CoverageMap; 3]| {
        let mut merged = maps[0].clone();
        maps[1..].iter().for_each(|map| merged.merge(map));
        merged
    };
    let forward = merged([&oracle, &corpus, &guided]);
    let backward = merged([&guided, &oracle, &corpus]);
    for family in FAMILIES {
        assert!(
            forward.points(family).eq(backward.points(family)),
            "merged {family} depends on the order"
        );
    }
}
