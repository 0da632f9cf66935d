//! Acceptance tests for packet-journey tracing and the online stall
//! watchdog: the live suspicion must agree with the post-mortem, the
//! Chrome-trace export must round-trip through the validator, and the
//! whole feature must be invisible when disabled.

use ebda_core::{parse_channels, Turn, TurnSet};
use ebda_obs::{EventKind, JourneyConfig, JourneyEnd, Recorder, RecorderConfig};
use ebda_routing::{Topology, TurnRouting};
use noc_sim::{
    simulate, simulate_traced, ChannelCoord, Outcome, SimConfig, SimResult, SuspectedEdge,
    TrafficPattern,
};
use std::collections::BTreeSet;

#[path = "../../obs/tests/chrome_check/mod.rs"]
mod chrome_check;

/// All turns allowed on one VC: cyclic by construction, the standard
/// positive control.
fn cyclic_relation() -> TurnRouting {
    let universe = parse_channels("X+ X- Y+ Y-").unwrap();
    let mut turns = TurnSet::new();
    for &a in &universe {
        for &b in &universe {
            if a != b {
                turns.insert(Turn::new(a, b));
            }
        }
    }
    TurnRouting::new("all-turns", universe, turns)
}

/// Seed-pinned pressure config that deadlocks the positive control fast.
fn pressure() -> SimConfig {
    SimConfig {
        injection_rate: 0.5,
        packet_length: 8,
        buffer_depth: 2,
        warmup: 0,
        measurement: 4_000,
        drain: 0,
        deadlock_threshold: 300,
        traffic: TrafficPattern::Uniform,
        ..SimConfig::default()
    }
}

/// Runs one simulation with a fresh recorder attached, its journey
/// tracer on when `journeys` is given, and hands both back.
fn traced(
    topo: &Topology,
    relation: &TurnRouting,
    cfg: &SimConfig,
    journeys: Option<JourneyConfig>,
) -> (SimResult, Recorder) {
    let mut rec = Recorder::new(RecorderConfig::default());
    if let Some(journeys) = journeys {
        rec.enable_journeys(journeys);
    }
    let result = simulate_traced(topo, relation, cfg, Some(&mut rec));
    (result, rec)
}

fn channel_set(edges: &[SuspectedEdge]) -> BTreeSet<ChannelCoord> {
    edges.iter().flat_map(|e| e.channels()).collect()
}

#[test]
fn online_suspicion_matches_the_post_mortem_wait_cycle() {
    let topo = Topology::mesh(&[4, 4]);
    let cfg = SimConfig {
        watchdog_window: 100,
        ..pressure()
    };
    let (result, rec) = traced(
        &topo,
        &cyclic_relation(),
        &cfg,
        Some(JourneyConfig::default()),
    );
    let Outcome::Deadlocked { wait_cycle, .. } = &result.outcome else {
        panic!("positive control must deadlock, got {:?}", result.outcome);
    };

    // The online watchdog tripped before the hard threshold aborted the
    // run, and its suspicion was captured while the run was still going.
    assert!(result.watchdog_trips >= 1);
    assert!(!result.suspected_cycle.is_empty(), "trip must find a cycle");
    assert!(result.suspected_at_cycle < result.cycles);

    // Structured post-mortem edges mirror the textual wait cycle 1:1.
    assert_eq!(result.final_wait_edges.len(), wait_cycle.len());
    for (edge, label) in result.final_wait_edges.iter().zip(wait_cycle) {
        assert_eq!(&edge.label, label);
    }
    // The recorder's last batch of wait-for edges is the post-mortem.
    let final_batch = rec.events().fold(0, |n, e| match e.kind() {
        EventKind::Watchdog => 0,
        EventKind::WaitFor => n + 1,
        _ => n,
    });
    assert_eq!(final_batch, wait_cycle.len());

    // The acceptance criterion: the suspected wait cycle names the same
    // channel set as the flight-recorder post-mortem. The network froze
    // before the trip and nothing moved afterwards, so the live and
    // final hold/want graphs describe the same circular wait.
    let suspected = channel_set(&result.suspected_cycle);
    let confirmed = channel_set(&result.final_wait_edges);
    assert!(!suspected.is_empty());
    assert_eq!(
        suspected, confirmed,
        "live suspicion and post-mortem must name the same channels"
    );
}

#[test]
fn journeys_of_a_deadlocked_run_export_and_round_trip() {
    let topo = Topology::mesh(&[4, 4]);
    let cfg = SimConfig {
        watchdog_window: 100,
        ..pressure()
    };
    let (result, rec) = traced(
        &topo,
        &cyclic_relation(),
        &cfg,
        Some(JourneyConfig::default()),
    );
    assert!(!result.outcome.is_deadlock_free());
    let tracer = rec.journeys().expect("journeys attached");
    assert!(!tracer.journeys().is_empty());
    assert!(
        tracer.journeys().iter().any(|j| j.suspect),
        "a diagnosed wait edge must mark its packets suspect"
    );
    assert!(
        tracer
            .journeys()
            .iter()
            .any(|j| j.end == JourneyEnd::InFlight && !j.hops.is_empty()),
        "a deadlock leaves traced packets holding channels"
    );

    let mut builder = ebda_obs::TraceBuilder::new();
    builder.add_run("deadlock replay", tracer);
    let text = builder.finish();
    let summary = chrome_check::validate(&text).expect("export must be valid Trace Event Format");
    assert!(summary.complete > 0, "hold spans expected");
    assert!(summary.flows > 0, "flow events linking hops expected");
    assert!(summary.tracks > 1, "more than one router track expected");
    assert!(
        summary.instants > 0,
        "watchdog trip / wait notes render as instants"
    );
}

#[test]
fn sampling_prunes_journeys_deterministically() {
    let topo = Topology::mesh(&[4, 4]);
    let cfg = pressure();
    let sampled = JourneyConfig {
        sample_rate: 0.25,
        ..JourneyConfig::default()
    };
    let (_, rec_all) = traced(
        &topo,
        &cyclic_relation(),
        &cfg,
        Some(JourneyConfig::default()),
    );
    let (_, rec_some) = traced(&topo, &cyclic_relation(), &cfg, Some(sampled.clone()));
    let (_, rec_same) = traced(&topo, &cyclic_relation(), &cfg, Some(sampled));
    let all = rec_all.journeys().unwrap().journeys().len();
    let some = rec_some.journeys().unwrap().journeys().len();
    assert!(
        some < all,
        "sampling must trace fewer packets ({some}/{all})"
    );
    assert!(some > 0, "rate 0.25 must still trace something");
    let pids = |r: &ebda_obs::Recorder| -> Vec<u64> {
        r.journeys()
            .unwrap()
            .journeys()
            .iter()
            .map(|j| j.pid)
            .collect()
    };
    assert_eq!(
        pids(&rec_some),
        pids(&rec_same),
        "sampling is deterministic"
    );
}

#[test]
fn disabled_journeys_leave_results_byte_identical() {
    // The zero-overhead guarantee: a run without journeys produces
    // byte-identical sweep output to one where the feature was never
    // touched — here pinned by formatting the sweep CSV columns from
    // both results and comparing the bytes.
    let topo = Topology::mesh(&[4, 4]);
    let relation = cyclic_relation();
    let mut cfg = pressure();
    cfg.injection_rate = 0.05; // completes: exercises the full pipeline
    cfg.drain = 2_000;

    let sweep_row = |r: &SimResult| -> String {
        let p50 = r.latency_percentile(50.0).unwrap_or(0);
        let p99 = r.latency_percentile(99.0).unwrap_or(0);
        format!(
            "{:.2},{},{},{},{:.4},{:.3},{}",
            cfg.injection_rate,
            r.measured_injected,
            r.measured_delivered,
            p50,
            r.throughput,
            r.avg_latency,
            if r.outcome.is_deadlock_free() {
                "ok".to_string()
            } else {
                format!("deadlock-p99-{p99}")
            }
        )
    };

    let plain = simulate(&topo, &relation, &cfg);
    let (with_journeys, rec) = traced(&topo, &relation, &cfg, Some(JourneyConfig::default()));
    let (without, _) = traced(&topo, &relation, &cfg, None);
    assert!(rec.journeys().is_some());
    assert_eq!(sweep_row(&plain), sweep_row(&with_journeys));
    assert_eq!(sweep_row(&plain), sweep_row(&without));
    assert_eq!(plain.latencies, with_journeys.latencies);
    assert_eq!(plain.channel_flits, with_journeys.channel_flits);
    assert_eq!(plain.cycles, with_journeys.cycles);
    assert_eq!(plain.watchdog_trips, 0);
    assert_eq!(with_journeys.watchdog_trips, 0);
}
