//! Mid-run fault churn under the live watchdog, and its agreement with
//! the brute-force oracle through replay.
//!
//! Three claims pinned down here:
//!
//! 1. A dateline torus taking link failures mid-run stays deadlock-free,
//!    accounts for every packet, and actually drops some (the faults are
//!    not decorative).
//! 2. The whole faulted, watchdog-armed run is byte-deterministic across
//!    `ebda-par` thread counts — the worker pool may never leak into
//!    simulation results.
//! 3. On a genuine wrap-ring deadlock, the oracle's replay pipeline
//!    reports `watchdog_agrees == Some(true)`: the online watchdog's
//!    suspected cycle names the same channels as the brute-force witness.

use ebda_core::{catalog, Dimension, Direction};
use ebda_obs::JourneyConfig;
use ebda_oracle::artifact::{Artifact, ArtifactKind};
use ebda_oracle::differential::replay_artifact;
use ebda_routing::{Topology, TurnRouting};
use noc_sim::{simulate, SimConfig};

/// A 4x4 dateline torus run with two links failing mid-run and the
/// online watchdog armed.
fn churn_cfg() -> SimConfig {
    SimConfig {
        injection_rate: 0.08,
        warmup: 100,
        measurement: 600,
        drain: 2_500,
        deadlock_threshold: 900,
        watchdog_window: 150,
        fault_schedule: vec![
            (250, 5, Dimension::X, Direction::Plus),
            (400, 10, Dimension::Y, Direction::Minus),
        ],
        ..SimConfig::default()
    }
}

#[test]
fn dateline_torus_survives_fault_churn() {
    let topo = Topology::torus(&[4, 4]);
    let design = catalog::dateline_design(&[4, 4], &[true, true]);
    let routing = TurnRouting::from_design("dateline", &design).unwrap();
    let result = simulate(&topo, &routing, &churn_cfg());
    assert!(
        result.outcome.is_deadlock_free(),
        "outcome: {:?}",
        result.outcome
    );
    assert!(
        result.dropped_packets > 0,
        "faults should sever live wormholes"
    );
    assert_eq!(
        result.delivered_packets + result.dropped_packets,
        result.injected_packets,
        "every packet must be delivered or accounted as dropped"
    );
}

/// The faulted, watchdog-armed run renders byte-identically whatever the
/// `ebda-par` pool size is — simulation must be independent of the
/// worker count that other layers (campaign, shrinking) use.
#[test]
fn faulted_run_is_byte_identical_across_thread_counts() {
    let topo = Topology::torus(&[4, 4]);
    let design = catalog::dateline_design(&[4, 4], &[true, true]);
    let routing = TurnRouting::from_design("dateline", &design).unwrap();
    let render = |threads: usize| -> String {
        ebda_par::set_threads(threads);
        let result = simulate(&topo, &routing, &churn_cfg());
        format!("{result}\nheat:{:?}", result.channel_flits)
    };
    let serial = render(1);
    let parallel = render(8);
    assert_eq!(serial, parallel, "thread count leaked into the simulation");
}

/// Replay of a wrap-ring deadlock artifact: the online watchdog's
/// suspected wait cycle must agree with the brute-force witness.
#[test]
fn watchdog_agrees_with_brute_on_replayed_wrap_ring() {
    // The classic single-VC torus rings: every dimension-order turn
    // allowed, no dateline, so each wrap ring is a circular wait.
    let design = catalog::dateline_design(&[4, 4], &[false, false]);
    let artifact = Artifact {
        id: 0,
        kind: ArtifactKind::RandomTurns,
        radix: vec![4, 4],
        wrap: vec![true, true],
        vcs: vec![1, 1],
        universe: ebda_core::parse_channels("X+ X- Y+ Y-").unwrap(),
        turns: ebda_core::extract_turns(&design).unwrap().into_turn_set(),
        design: None,
    };
    let replay = replay_artifact(&artifact, 7, JourneyConfig::default())
        .expect("a deadlocking artifact must replay");
    assert_eq!(
        replay.watchdog_agrees,
        Some(true),
        "watchdog and brute force must name the same circular wait"
    );
}
