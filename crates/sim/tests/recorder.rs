//! Integration tests of the flight recorder against the simulator: the
//! disabled path changes nothing, identical seeds give identical event
//! streams, exports round-trip through the zero-dependency parsers, and a
//! genuine torus deadlock leaves a post-mortem whose final events
//! reconstruct the circular wait.

use ebda_obs::json::Value;
use ebda_obs::{Event, EventKind, Recorder, RecorderConfig};
use ebda_routing::classic::{DimensionOrder, TorusDateline};
use ebda_routing::Topology;
use noc_sim::{simulate, simulate_traced, Outcome, SimConfig};

#[path = "../../obs/tests/csv_reader/mod.rs"]
mod csv_reader;

fn small_cfg() -> SimConfig {
    SimConfig {
        injection_rate: 0.05,
        warmup: 100,
        measurement: 400,
        drain: 800,
        deadlock_threshold: 500,
        ..SimConfig::default()
    }
}

/// The textbook torus deadlock config (mirrors the engine's watchdog
/// unit test): single-VC shortest-way routing without a dateline.
fn deadlock_cfg() -> SimConfig {
    SimConfig {
        injection_rate: 0.35,
        packet_length: 8,
        buffer_depth: 2,
        warmup: 0,
        measurement: 5_000,
        drain: 1_000,
        deadlock_threshold: 400,
        ..SimConfig::default()
    }
}

/// With no recorder attached, the traced entry point is bit-identical to
/// the plain one — the disabled path must not perturb the simulation.
#[test]
fn disabled_recorder_changes_nothing() {
    let topo = Topology::mesh(&[4, 4]);
    let cfg = small_cfg();
    let plain = simulate(&topo, &DimensionOrder::xy(), &cfg);
    let traced = simulate_traced(&topo, &DimensionOrder::xy(), &cfg, None);
    assert_eq!(plain.injected_packets, traced.injected_packets);
    assert_eq!(plain.delivered_packets, traced.delivered_packets);
    assert_eq!(plain.latencies, traced.latencies);
    assert_eq!(plain.channel_flits, traced.channel_flits);
}

/// Attaching a recorder must not change the measured results either —
/// recording observes the simulation, never steers it.
#[test]
fn recording_is_transparent_to_results() {
    let topo = Topology::mesh(&[4, 4]);
    let cfg = small_cfg();
    let plain = simulate(&topo, &DimensionOrder::xy(), &cfg);
    let mut rec = Recorder::with_defaults();
    let traced = simulate_traced(&topo, &DimensionOrder::xy(), &cfg, Some(&mut rec));
    assert_eq!(plain.latencies, traced.latencies);
    assert_eq!(plain.channel_flits, traced.channel_flits);
    // And the stream is consistent with the results.
    assert_eq!(rec.total(EventKind::Inject), traced.injected_packets);
    assert_eq!(rec.total(EventKind::Eject), traced.delivered_packets);
    assert!(rec.samples().len() as u64 >= traced.cycles / rec.sample_every());
}

/// Identical configurations produce identical event streams.
#[test]
fn identical_seeds_give_identical_event_streams() {
    let topo = Topology::mesh(&[4, 4]);
    let cfg = small_cfg();
    let mut a = Recorder::with_defaults();
    let mut b = Recorder::with_defaults();
    simulate_traced(&topo, &DimensionOrder::xy(), &cfg, Some(&mut a));
    simulate_traced(&topo, &DimensionOrder::xy(), &cfg, Some(&mut b));
    let ea: Vec<&Event> = a.events().collect();
    let eb: Vec<&Event> = b.events().collect();
    assert_eq!(ea, eb);
    assert_eq!(a.samples(), b.samples());
    // A different seed produces a different stream (sanity check that the
    // equality above is not vacuous).
    let mut c = Recorder::with_defaults();
    let other = SimConfig {
        seed: cfg.seed + 1,
        ..cfg
    };
    simulate_traced(&topo, &DimensionOrder::xy(), &other, Some(&mut c));
    let ec: Vec<&Event> = c.events().collect();
    assert_ne!(ea, ec);
}

/// A tiny ring capacity wraps around: retained stays bounded, evictions
/// are counted, and per-kind totals stay exact.
#[test]
fn ring_wraparound_keeps_totals_exact() {
    let topo = Topology::mesh(&[4, 4]);
    let cfg = small_cfg();
    let mut full = Recorder::with_defaults();
    simulate_traced(&topo, &DimensionOrder::xy(), &cfg, Some(&mut full));
    let mut tiny = Recorder::new(RecorderConfig {
        capacity: 64,
        sample_every: 100,
    });
    simulate_traced(&topo, &DimensionOrder::xy(), &cfg, Some(&mut tiny));
    assert_eq!(tiny.retained(), 64);
    assert!(tiny.evicted() > 0);
    for kind in EventKind::ALL {
        assert_eq!(tiny.total(kind), full.total(kind), "{}", kind.name());
    }
    // The ring keeps the most recent events: its stream is the tail of
    // the full stream.
    let full_tail: Vec<&Event> = full.events().collect::<Vec<_>>()[full.retained() - 64..].to_vec();
    let tiny_all: Vec<&Event> = tiny.events().collect();
    assert_eq!(tiny_all, full_tail);
}

/// JSON and CSV exports of a real run parse back with the obs parsers.
#[test]
fn exports_roundtrip_through_own_parsers() {
    let topo = Topology::mesh(&[4, 4]);
    let cfg = small_cfg();
    let mut rec = Recorder::with_defaults();
    simulate_traced(&topo, &DimensionOrder::xy(), &cfg, Some(&mut rec));

    let doc = Value::parse(&rec.write_json()).expect("trace JSON parses");
    let events = doc.get("events").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), rec.retained());
    assert_eq!(
        doc.get("totals")
            .unwrap()
            .get("inject")
            .unwrap()
            .as_u64()
            .unwrap(),
        rec.total(EventKind::Inject)
    );
    // Every exported event carries a kind and a cycle.
    for e in events {
        assert!(e.get("kind").unwrap().as_str().is_some());
        assert!(e.get("cycle").unwrap().as_u64().is_some());
    }

    let csv = rec.events_csv();
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    let cols = header.split(',').count();
    let mut rows = 0;
    for line in lines {
        let fields = csv_reader::parse_line(line).expect("CSV row parses");
        assert_eq!(fields.len(), cols);
        rows += 1;
    }
    assert_eq!(rows, rec.retained());

    let samples_csv = rec.samples_csv();
    assert_eq!(samples_csv.lines().count(), rec.samples().len() + 1);
}

/// The acceptance scenario: an uncertified relation on a torus deadlocks,
/// and the recorder's final events reconstruct the circular wait reported
/// in `Outcome::Deadlocked`.
#[test]
fn deadlock_post_mortem_reconstructs_the_circular_wait() {
    let topo = Topology::torus(&[4, 4]);
    let cfg = deadlock_cfg();
    let mut rec = Recorder::with_defaults();
    let result = simulate_traced(
        &topo,
        &TorusDateline::without_dateline(2),
        &cfg,
        Some(&mut rec),
    );
    let Outcome::Deadlocked {
        at_cycle,
        wait_cycle,
        ..
    } = &result.outcome
    else {
        panic!("expected the ring deadlock, got {result}");
    };
    assert!(wait_cycle.len() >= 2, "wait cycle too short: {result}");

    // Exactly one watchdog event, stamped at the deadlock cycle.
    assert_eq!(rec.total(EventKind::Watchdog), 1);
    let watchdog = rec
        .events()
        .find(|e| e.kind() == EventKind::Watchdog)
        .expect("watchdog event retained");
    assert_eq!(watchdog.cycle(), *at_cycle);

    // The trailing WaitFor events mirror the human-readable wait cycle
    // exactly, in order...
    let waits: Vec<&Event> = rec
        .events()
        .filter(|e| e.kind() == EventKind::WaitFor)
        .collect();
    assert_eq!(waits.len(), wait_cycle.len());
    for (event, label) in waits.iter().zip(wait_cycle) {
        let Event::WaitFor {
            cycle,
            label: event_label,
            ..
        } = event
        else {
            unreachable!("filtered on kind");
        };
        assert_eq!(cycle, at_cycle);
        assert_eq!(event_label, label);
    }
    // ...and their waiter/waits_on pids close a genuine cycle.
    for (i, event) in waits.iter().enumerate() {
        let Event::WaitFor {
            waiter, waits_on, ..
        } = event
        else {
            unreachable!("filtered on kind");
        };
        let Event::WaitFor { waiter: next, .. } = waits[(i + 1) % waits.len()] else {
            unreachable!("filtered on kind");
        };
        assert_eq!(
            waits_on, next,
            "wait-for edge {i} does not chain into the next"
        );
        assert_ne!(waiter, waits_on, "a packet cannot wait on itself");
    }
}

/// Sampling cadence: one sample per `sample_every` cycles, starting at 0.
#[test]
fn samples_follow_the_configured_cadence() {
    let topo = Topology::mesh(&[4, 4]);
    let cfg = small_cfg();
    let mut rec = Recorder::new(RecorderConfig {
        capacity: 1024,
        sample_every: 250,
    });
    let result = simulate_traced(&topo, &DimensionOrder::xy(), &cfg, Some(&mut rec));
    assert!(!rec.samples().is_empty());
    for (i, s) in rec.samples().iter().enumerate() {
        assert_eq!(s.cycle, i as u64 * 250);
        assert!(s.cycle <= result.cycles);
        assert!(!s.occupancy.is_empty());
    }
}
