//! The work-unit counters of six fixed workloads, pinned exactly.
//!
//! Each workload runs once under the self-profiler (`ebda::obs::prof`);
//! the brute-force searcher is a leaf and reports its own work. These are
//! algorithm counts — cycles simulated, GFP sweeps, CDG edges, shrink
//! evaluations — the same at every thread count and on every host, so
//! they are compared by equality with `tests/work_counters.txt`: one
//! sorted `workload phase:unit count` line per counter. A counter that
//! moves, appears or disappears fails with a diff naming it. Wall clock
//! is not measured here; `benchmark/` is the one wall-clock record. After
//! a deliberate change, rewrite the list with
//!
//! ```text
//! EBDA_BLESS=1 cargo test --test work_counters
//! ```

mod list_diff;

use ebda::cdg::dally::{design_universe, infer_vcs};
use ebda::core::{catalog, extract_turns, parse_channels, Turn, TurnSet};
use ebda::obs::prof;
use ebda::oracle::artifact::{Artifact, ArtifactKind};
use ebda::oracle::brute;
use ebda::oracle::differential::{run_campaign, CampaignConfig};
use ebda::oracle::shrink::{shrink, DEFAULT_SHRINK_BUDGET};
use ebda::routing::classic::DimensionOrder;
use ebda::routing::Topology;
use ebda::sim::sweep::{latency_curve, replicate_with_threads};
use ebda::sim::{simulate, SimConfig};
use list_diff::compare;
use std::path::Path;
use std::time::Duration;

/// Runs `f` once under a freshly reset profiler and returns the work it
/// recorded as `workload phase:unit count` lines.
fn profiled(workload: &str, f: impl FnOnce()) -> Vec<String> {
    prof::reset();
    f();
    let phases = prof::snapshot().phases;
    let lines = phases.iter().flat_map(|(path, stat)| {
        let work = stat.work.iter();
        work.map(move |(unit, n)| format!("{workload} {path}:{unit} {n}"))
    });
    lines.collect()
}

/// The counters of a brute-force search, taken from its report.
fn searched(workload: &str, counts: &[(&str, usize)]) -> Vec<String> {
    counts
        .iter()
        .map(|(unit, n)| format!("{workload} brute:{unit} {n}"))
        .collect()
}

/// Every counter of the six workloads, sorted.
fn measure() -> Vec<String> {
    let mesh8 = Topology::mesh(&[8, 8]);
    let xy = DimensionOrder::xy();
    let base = SimConfig {
        warmup: 100,
        measurement: 400,
        drain: 600,
        deadlock_threshold: 400,
        collect_latencies: false,
        ..SimConfig::default()
    };
    let at = |rate: f64| SimConfig {
        injection_rate: rate,
        ..base.clone()
    };
    let radix = [6, 6];
    let dateline = catalog::torus_dateline(&radix);
    let universe = design_universe(&dateline);
    let turns = extract_turns(&dateline).unwrap().into_turn_set();
    let torus = ebda::cdg::Topology::torus(&radix);
    let classes = parse_channels("X+ X- Y+ Y-").unwrap();
    let mut all_turns = TurnSet::new();
    for &a in &classes {
        for &b in classes.iter().filter(|&&b| b != a) {
            all_turns.insert(Turn::new(a, b));
        }
    }
    let rings = Artifact {
        id: 0,
        kind: ArtifactKind::ChannelOrdering,
        radix: vec![4, 4],
        wrap: vec![true, true],
        vcs: vec![1, 1],
        universe: classes.clone(),
        turns: TurnSet::new(),
        design: None,
    };
    let deadlocks = |a: &Artifact| {
        !brute::search(&a.topology(), &a.vcs, &a.universe, &a.turns).is_deadlock_free()
    };

    prof::set_enabled(true);
    let mut lines = profiled("engine/sim-8x8-rate05", || {
        simulate(&mesh8, &xy, &at(0.05));
    });
    let r = brute::search(&torus, &infer_vcs(&universe, 2), &universe, &turns);
    assert!(r.is_deadlock_free());
    let counts = [("gfp_sweeps", r.sweeps), ("wait_pairs", r.pairs)];
    lines.extend(searched("brute/torus-dateline-6x6", &counts));
    let mesh5 = ebda::cdg::Topology::mesh(&[5, 5]);
    let r = brute::search(&mesh5, &[1, 1], &classes, &all_turns);
    assert!(!r.is_deadlock_free());
    let counts = [
        ("gfp_sweeps", r.sweeps),
        ("wait_pairs", r.pairs),
        ("surviving", r.surviving),
    ];
    lines.extend(searched("brute/all-turns-mesh-5x5", &counts));
    lines.extend(profiled("shrink/torus-rings", || {
        let small = shrink(&rings, deadlocks, DEFAULT_SHRINK_BUDGET);
        assert_eq!(small.universe.len(), 1);
    }));
    lines.extend(profiled("sweep/16pt-x3rep-8x8", || {
        let rates: Vec<f64> = (1..=16).map(|i| 0.005 * i as f64).collect();
        assert_eq!(latency_curve(&mesh8, &xy, &base, &rates).len(), 16);
        for &rate in &rates[..3] {
            let replicated = replicate_with_threads(&mesh8, &xy, &at(rate), 3, 0);
            assert_eq!(replicated.replicates, 3);
        }
    }));
    lines.extend(profiled("oracle/campaign-150", || {
        let report = run_campaign(&CampaignConfig {
            seed: 7,
            budget: Duration::ZERO,
            min_configs: 150,
            max_configs: 150,
            max_nodes: 25,
            ..CampaignConfig::default()
        });
        assert!(report.is_clean(), "{report}");
    }));
    prof::set_enabled(false);
    lines.sort();
    lines
}

#[test]
fn work_counters_are_the_checked_in_list() {
    let got = measure();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/work_counters.txt");
    if std::env::var_os("EBDA_BLESS").is_some() {
        std::fs::write(&path, got.join("\n") + "\n").expect("write tests/work_counters.txt");
        return;
    }
    let text = std::fs::read_to_string(&path).expect("tests/work_counters.txt");
    let want: Vec<String> = text.lines().map(String::from).collect();
    if let Err(diff) = compare(&got, &want) {
        panic!(
            "work counters changed (+ now, - pinned); after a deliberate \
             change rerun with EBDA_BLESS=1:\n{diff}"
        );
    }
}

/// The comparison can fail: a doubled, a dropped and an added counter
/// each trip it, naming the counter.
#[test]
fn the_comparison_trips_on_any_changed_counter() {
    let lines = |lines: &[&str]| -> Vec<String> { lines.iter().map(|l| l.to_string()).collect() };
    let (pairs, cycles) = (
        "brute/torus-dateline-6x6 brute:wait_pairs 1072",
        "sweep/16pt-x3rep-8x8 sim/run:cycles 14022",
    );
    let sweeps = "oracle/campaign-150 oracle/evaluate/brute:gfp_sweeps";
    let want = lines(&[pairs, &format!("{sweeps} 836"), cycles]);
    assert_eq!(compare(&want, &want), Ok(()));

    let doubled = lines(&[pairs, &format!("{sweeps} 1672"), cycles]);
    let diff = format!("+ {sweeps} 1672\n- {sweeps} 836");
    assert_eq!(compare(&doubled, &want), Err(diff));

    let dropped = lines(&[pairs, cycles]);
    assert_eq!(compare(&dropped, &want), Err(format!("- {sweeps} 836")));

    let added = [
        &want[..],
        &lines(&["oracle/campaign-150 oracle/new:unit 1"]),
    ]
    .concat();
    let diff = "+ oracle/campaign-150 oracle/new:unit 1".to_string();
    assert_eq!(compare(&added, &want), Err(diff));
}
