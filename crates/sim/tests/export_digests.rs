//! Byte-identity pins of the trace exporters that the engine matrix does
//! not hash: the recorder's event and sample CSV, the Chrome trace of a
//! run's journeys plus a worker timeline, and the profile documents.
//!
//! Every input is clock-free: the run is the matrix's naive-torus
//! deadlock, whose wait-for events close a cycle, followed by one
//! hand-made wait-for edge whose label needs JSON and CSV escaping; the
//! worker segments and the profile's wall times are fixed numbers. The
//! recorder's JSON of the plain run is also pinned by `engine_matrix.rs`.

#[path = "matrix/mod.rs"]
mod matrix;

use std::collections::BTreeMap;

use ebda_obs::{
    Event, JourneyConfig, PhaseStat, ProfSnapshot, Recorder, RecorderConfig, TraceBuilder,
    WorkerSegment,
};
use noc_sim::simulate_traced;

fn segment(worker: usize, label: &str, start_ns: u64, dur_ns: u64) -> WorkerSegment {
    WorkerSegment {
        worker,
        label: label.into(),
        start_ns,
        dur_ns,
    }
}

fn workers() -> Vec<WorkerSegment> {
    vec![
        segment(0, "task 0", 1_000, 500),
        segment(0, "task \"2\"", 9_000, 4_000),
        segment(1, "task 1", 2_000, 3_000_000),
    ]
}

fn recorded_deadlock() -> Recorder {
    let case = matrix::cases()
        .into_iter()
        .find(|c| c.name == "naive-torus-deadlock")
        .expect("matrix case");
    assert!(
        case.record,
        "engine_matrix.rs pins this run's recorder JSON"
    );
    let mut rec = Recorder::new(RecorderConfig {
        sample_every: 50,
        ..RecorderConfig::default()
    });
    rec.enable_journeys(JourneyConfig::default());
    let r = simulate_traced(&case.topo, &*case.relation, &case.cfg, Some(&mut rec));
    assert!(!r.outcome.is_deadlock_free(), "{r}");
    rec.record(Event::WaitFor {
        cycle: r.cycles,
        waiter: 1,
        waits_on: 2,
        label: "credits on X+, vc 1 \"owned\"\tby\np2".into(),
    });
    rec
}

#[test]
fn recorder_csv_and_chrome_trace_are_unchanged() {
    let rec = recorded_deadlock();
    let events = rec.events_csv();
    assert!(events.contains(",\"credits on X+, vc 1 \"\"owned\"\""));
    let mut trace = TraceBuilder::new();
    trace.add_run(
        "naive torus \"deadlock\"",
        rec.journeys().expect("journeys"),
    );
    trace.add_worker_timeline("workers", &workers());
    let actual = [
        matrix::fnv1a(events.as_bytes()),
        matrix::fnv1a(rec.samples_csv().as_bytes()),
        matrix::fnv1a(rec.write_json().as_bytes()),
        matrix::fnv1a(trace.finish().as_bytes()),
    ];
    assert_eq!(
        actual,
        [
            0xaa015fadcb757e88,
            0x7bb7d5041dde7ec8,
            0x7c804181f0ab2109,
            0x85ff15bba2f6ab00,
        ],
        "exports changed: {actual:#018x?}"
    );
}

#[test]
fn profile_documents_are_unchanged() {
    let stat = |calls: u64, wall_ns: u64, work: &[(&str, u64)]| PhaseStat {
        calls,
        wall_ns,
        work: work.iter().map(|&(u, v)| (u.to_string(), v)).collect(),
    };
    let phases: BTreeMap<String, PhaseStat> = [
        ("sim/run", stat(2, 5_000, &[("cycles", 900)])),
        (
            "sim/run/route",
            stat(40, 2_000, &[("routes", 40), ("a\"b", 1)]),
        ),
        ("sim/run/switch", stat(40, 1_500, &[])),
        (
            "oracle/evaluate/brute",
            stat(3, 7_000, &[("gfp_sweeps", 12)]),
        ),
        ("par/idle", stat(0, 300, &[])),
    ]
    .into_iter()
    .map(|(p, s)| (p.to_string(), s))
    .collect();
    let snap = ProfSnapshot {
        phases,
        workers: workers(),
    };
    let actual = [
        matrix::fnv1a(snap.to_json().as_bytes()),
        matrix::fnv1a(snap.flame_json().as_bytes()),
        matrix::fnv1a(ProfSnapshot::default().to_json().as_bytes()),
    ];
    assert_eq!(
        actual,
        [0xb3f884b682319104, 0x6ecd41b7693c28b8, 0x3d97355b59f55806],
        "profile documents changed: {actual:#018x?}"
    );
}
