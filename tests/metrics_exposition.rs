//! The `/metrics` exposition of three fixed workloads, pinned exactly.
//!
//! Each workload runs once with live metrics and the self-profiler both
//! on, against freshly reset registries, and the body the endpoint would
//! serve is compared with `tests/metrics_exposition.txt`: one sorted
//! `workload name{labels} value` line per nonzero sample. The profiler's
//! own `ebda_prof_*` families and every wall-clock family (a name with
//! `_ns` in it) are left out; everything else — counters, gauges and
//! histogram buckets — is a deterministic function of the seeded work.
//! After a deliberate change, rewrite the list with
//!
//! ```text
//! EBDA_BLESS=1 cargo test --test metrics_exposition
//! ```

mod list_diff;

use ebda::corpus::store::load_dir;
use ebda::corpus::{run_corpus_campaign, CorpusCampaignConfig};
use ebda::obs::{metrics, prof};
use ebda::oracle::differential::{run_campaign, CampaignConfig};
use ebda::oracle::verdict::Mutation;
use ebda::routing::classic::DimensionOrder;
use ebda::routing::Topology;
use ebda::sim::{simulate, SimConfig};
use list_diff::compare;
use std::path::Path;
use std::time::Duration;

/// Runs `f` against reset registries and returns the nonzero samples of
/// the served exposition as `workload name{labels} value` lines.
fn scraped(workload: &str, f: impl FnOnce()) -> Vec<String> {
    metrics::global().reset();
    prof::reset();
    f();
    let body = metrics::render_global();
    let samples = metrics::parse_exposition(&body).expect("exposition parses");
    samples
        .iter()
        .filter(|s| s.value != 0.0 && !s.name.starts_with("ebda_prof_") && !s.name.contains("_ns"))
        .map(|s| {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
            let labels = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", labels.join(","))
            };
            format!("{workload} {}{labels} {}", s.name, s.value)
        })
        .collect()
}

/// Every sample of the three workloads, sorted.
fn measure() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ledger = std::env::temp_dir().join(format!("ebda-exposition-{}.jsonl", std::process::id()));
    let coverage = ledger.with_extension("coverage.json");
    metrics::set_enabled(true);
    prof::set_enabled(true);
    let mut lines = scraped("sim/4x4-xy", || {
        let cfg = SimConfig {
            injection_rate: 0.05,
            warmup: 100,
            measurement: 400,
            drain: 800,
            deadlock_threshold: 500,
            ..SimConfig::default()
        };
        simulate(&Topology::mesh(&[4, 4]), &DimensionOrder::xy(), &cfg);
    });
    lines.extend(scraped("oracle/dally-ignores-wrap", || {
        let report = run_campaign(&CampaignConfig {
            seed: 7,
            budget: Duration::ZERO,
            min_configs: 60,
            max_configs: 1_000,
            max_nodes: 16,
            mutation: Mutation::DallyIgnoresWrap,
            ..CampaignConfig::default()
        });
        let caught = report.caught.expect("the broken Dally checker is caught");
        assert!(caught.replay.is_some(), "the shrunk witness replays");
    }));
    lines.extend(scraped("corpus/seed", || {
        let _ = std::fs::remove_file(&ledger);
        let entries = load_dir(&root.join("corpus/seed")).expect("corpus/seed loads");
        let report = run_corpus_campaign(
            &entries,
            &CorpusCampaignConfig {
                ledger: Some(ledger.clone()),
                coverage: Some(coverage.clone()),
                ..CorpusCampaignConfig::default()
            },
        );
        assert!(report.mismatches.is_empty() && report.write_errors.is_empty());
    }));
    metrics::set_enabled(false);
    prof::set_enabled(false);
    let _ = std::fs::remove_file(&ledger);
    let _ = std::fs::remove_file(&coverage);
    lines.sort();
    lines
}

#[test]
fn metrics_exposition_is_the_checked_in_list() {
    let got = measure();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/metrics_exposition.txt");
    if std::env::var_os("EBDA_BLESS").is_some() {
        std::fs::write(&path, got.join("\n") + "\n").expect("write tests/metrics_exposition.txt");
        return;
    }
    let text = std::fs::read_to_string(&path).expect("tests/metrics_exposition.txt");
    let want: Vec<String> = text.lines().map(String::from).collect();
    if let Err(diff) = compare(&got, &want) {
        panic!(
            "the exposition changed (+ now, - pinned); after a deliberate \
             change rerun with EBDA_BLESS=1:\n{diff}"
        );
    }
}
