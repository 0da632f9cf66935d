//! Witness replay: run a simulation with a flight recorder attached and
//! hand both back — the hook the differential oracle uses to turn a shrunk
//! structural counterexample into a concrete, recorded wait cycle.
//!
//! [`crate::simulate_traced`] already accepts an optional recorder; this
//! module packages the "always record, return the recorder" calling
//! convention so oracle-style callers do not have to thread recorder
//! lifetimes through their own plumbing.

use crate::config::SimConfig;
use crate::metrics::SimResult;
use ebda_obs::{EventKind, JourneyConfig, Recorder, RecorderConfig};
use ebda_routing::{RoutingRelation, Topology};

/// Runs one simulation with a fresh flight recorder attached and returns
/// the result together with the recorder, whose event log contains the
/// full inject/stall/watchdog history — including the [`EventKind::WaitFor`]
/// edges that spell out the circular wait when the run deadlocks.
///
/// # Panics
///
/// Panics on invalid configuration (see `SimConfig::validate`).
pub fn replay_with_recorder(
    topo: &Topology,
    relation: &dyn RoutingRelation,
    cfg: &SimConfig,
) -> (SimResult, Recorder) {
    replay_traced(topo, relation, cfg, None)
}

/// Like [`replay_with_recorder`], but optionally attaching a journey
/// tracer to the recorder, so the replay also yields per-packet span
/// trees (exportable with [`ebda_obs::TraceBuilder`]).
///
/// # Panics
///
/// Panics on invalid configuration (see `SimConfig::validate`).
pub fn replay_traced(
    topo: &Topology,
    relation: &dyn RoutingRelation,
    cfg: &SimConfig,
    journeys: Option<JourneyConfig>,
) -> (SimResult, Recorder) {
    let mut rec = Recorder::new(RecorderConfig::default());
    if let Some(jcfg) = journeys {
        rec.enable_journeys(jcfg);
    }
    let result = crate::engine::simulate_traced(topo, relation, cfg, Some(&mut rec));
    (result, rec)
}

/// Counts the wait-for edges of the recorder's *final* diagnosis — the
/// edges recorded after the last watchdog event. An online stall
/// watchdog (see [`SimConfig::watchdog_window`]) may record earlier
/// suspicion batches; only the last batch describes the post-mortem
/// wait cycle the run ended with.
pub fn wait_edge_count(rec: &Recorder) -> usize {
    let mut count = 0usize;
    for e in rec.events() {
        match e.kind() {
            EventKind::Watchdog => count = 0,
            EventKind::WaitFor => count += 1,
            _ => {}
        }
    }
    count
}

/// The coverage contribution of one recorded replay, under the
/// `sim_event` family: per-kind event totals plus the run's outcome
/// (`outcome/completed` or `outcome/deadlocked`). Campaigns merge this
/// into their design-space coverage map when a counterexample replay
/// runs, so the map also records which simulator behaviors the witness
/// actually exercised.
pub fn replay_coverage(result: &SimResult, rec: &Recorder) -> ebda_obs::CoverageMap {
    let mut map = ebda_obs::CoverageMap::new("");
    for kind in EventKind::ALL {
        map.record_n("sim_event", kind.name(), rec.total(kind));
    }
    map.record(
        "sim_event",
        if result.outcome.is_deadlock_free() {
            "outcome/completed"
        } else {
            "outcome/deadlocked"
        },
    );
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BufferPolicy, Selection, Switching};
    use crate::metrics::Outcome;
    use crate::traffic::TrafficPattern;
    use ebda_core::{parse_channels, Turn, TurnSet};
    use ebda_routing::TurnRouting;

    fn cyclic_relation() -> TurnRouting {
        // All turns allowed on one VC: cyclic by construction.
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

    fn pressure() -> SimConfig {
        SimConfig {
            injection_rate: 0.5,
            packet_length: 8,
            buffer_depth: 2,
            warmup: 0,
            measurement: 4_000,
            drain: 0,
            deadlock_threshold: 300,
            buffer_policy: BufferPolicy::MultiPacket,
            switching: Switching::Wormhole,
            selection: Selection::RotatingFirstFit,
            traffic: TrafficPattern::Uniform,
            ..SimConfig::default()
        }
    }

    #[test]
    fn replay_returns_result_and_recorder_with_wait_edges() {
        let topo = Topology::mesh(&[4, 4]);
        let (result, rec) = replay_with_recorder(&topo, &cyclic_relation(), &pressure());
        match &result.outcome {
            Outcome::Deadlocked { wait_cycle, .. } => {
                assert!(wait_cycle.len() >= 2);
                assert_eq!(wait_edge_count(&rec), wait_cycle.len());
            }
            other => panic!("positive control must deadlock, got {other:?}"),
        }
        assert!(EventKind::ALL.iter().any(|&k| rec.total(k) > 0));
    }

    #[test]
    fn traced_replay_counts_only_the_final_diagnosis_batch() {
        // With the online watchdog on, earlier suspicion batches are
        // recorded before the hard deadlock; wait_edge_count must still
        // equal the final wait cycle's length.
        let topo = Topology::mesh(&[4, 4]);
        let cfg = SimConfig {
            watchdog_window: 100,
            ..pressure()
        };
        let (result, rec) = replay_traced(
            &topo,
            &cyclic_relation(),
            &cfg,
            Some(JourneyConfig::default()),
        );
        match &result.outcome {
            Outcome::Deadlocked { wait_cycle, .. } => {
                assert!(result.watchdog_trips >= 1, "online watchdog must trip");
                assert_eq!(wait_edge_count(&rec), wait_cycle.len());
            }
            other => panic!("positive control must deadlock, got {other:?}"),
        }
        let tracer = rec.journeys().expect("journeys attached");
        assert!(!tracer.journeys().is_empty());
        assert!(
            !tracer.wait_notes().is_empty(),
            "watchdog edges must reach the journey tracer"
        );
    }

    #[test]
    fn replay_coverage_reports_event_kinds_and_outcome() {
        let topo = Topology::mesh(&[4, 4]);
        let (result, rec) = replay_with_recorder(&topo, &cyclic_relation(), &pressure());
        let map = replay_coverage(&result, &rec);
        let hits = |point: &str| {
            let mut points = map.points("sim_event");
            points.find(|&(p, _)| p == point).map_or(0, |(_, n)| n)
        };
        assert!(hits("inject") > 0);
        assert_eq!(hits("outcome/deadlocked"), 1);
        assert_eq!(hits("outcome/completed"), 0);
        assert_eq!(hits("wait_for"), rec.total(EventKind::WaitFor));
    }

    #[test]
    fn clean_runs_record_no_wait_edges() {
        let topo = Topology::mesh(&[4, 4]);
        let relation = TurnRouting::from_design("xy", &ebda_core::catalog::p1_xy()).unwrap();
        let cfg = SimConfig {
            injection_rate: 0.05,
            warmup: 0,
            measurement: 500,
            drain: 500,
            ..SimConfig::default()
        };
        let (result, rec) = replay_with_recorder(&topo, &relation, &cfg);
        assert!(result.outcome.is_deadlock_free());
        assert_eq!(wait_edge_count(&rec), 0);
    }
}
