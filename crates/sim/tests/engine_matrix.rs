//! Byte-identity pin of the simulation engine over the seeded matrix of
//! `tests/matrix/mod.rs`.
//!
//! Each digest is FNV-1a over the `Debug` rendering of the *whole*
//! `SimResult` (outcome and wait-cycle labels, every counter, the sorted
//! latency vector, the latency histogram, `channel_flits`,
//! `suspected_cycle`, `final_wait_edges`); recorded cases add the
//! digest of the recorder's JSON export (totals, every retained event,
//! every sample). The table was generated on the commit *before* the
//! event-driven core (PR 16, `7fc0816`) and has to pass unchanged on
//! every engine that claims to be the same simulator, only faster. Rows
//! added later are generated on the parent of the change that adds them.
//!
//! On a mismatch the test prints the whole table as it comes out now, in
//! the source form of `PINNED`, so a deliberate behaviour change is one
//! paste — and an accidental one is impossible to miss.

#[path = "matrix/mod.rs"]
mod matrix;

use ebda_obs::{Recorder, RecorderConfig};
use noc_sim::{simulate, simulate_traced};

/// `(case, SimResult digest, recorder digest for recorded cases)`.
#[rustfmt::skip]
const PINNED: &[(&str, u64, Option<u64>)] = &[
    ("lowload-16x16-west-first", 0xf76e11760f0cdbab, Some(0x7ef2919a92c6b193)),
    ("saturation-8x8-west-first", 0x07fa65642cf1f75b, None),
    ("zero-rate-xy", 0x9379dfee30986cb9, Some(0x0c4d7abe26d2ccfb)),
    ("mid-load-xy", 0x62e129e3d6e9e6fe, Some(0x700470adfbea43e0)),
    ("undrained-horizon-xy", 0xe9c726a96963e279, None),
    ("odd-even-design-transpose", 0x7bdc741a9fa7a263, None),
    ("odd-even-classic-most-credits", 0xfddd6815846f5f0f, None),
    ("dyxy-2vc-saturated", 0x3c8484054b87bd97, Some(0x0bbaf0a8a9f1a90b)),
    ("dyxy-2vc-most-credits-transpose", 0x2f192aa65aa9e3eb, None),
    ("dyxy-2vc-single-packet-most-credits", 0x6fae4cc230b97e68, None),
    ("west-first-single-packet", 0x865bbc0ab6eb50b4, None),
    ("west-first-vct", 0xa525e089cf6a1419, None),
    ("west-first-saf", 0x9e37571387fa68ed, Some(0xa1eeb1c90b403180)),
    ("west-first-saf-saturated", 0xf0ebdb70d21a551b, None),
    ("dyxy-vct-link-latency-3", 0xb63db1a3f54b7360, None),
    ("single-flit-packets-depth-1", 0x125e14e1d8eab294, Some(0xf8abcf8cb4084651)),
    ("long-packets-shallow-buffers", 0x12bf74da86697d17, None),
    ("bursty-xy", 0xf24ea19e418a2e2f, Some(0x3d894185cc2019d8)),
    ("bursty-west-first-saturated", 0x25623645e9a565bf, None),
    ("trace-xy", 0x1340dbc89791b870, Some(0xab99f007dd7a3cad)),
    ("hotspot-west-first", 0xfdfb9e19aa13be6d, None),
    ("bit-complement-xyz", 0xba5104d7909148cb, None),
    ("link-latency-3-xy", 0x60123bbace316dc1, Some(0xb35d2d3c9f33f4cf)),
    ("link-latency-3-west-first-saturated", 0x0a2b993627cb10b7, None),
    ("north-last-three-top-row-cuts-saturated", 0x1c8921910c9a60f7, Some(0xf91858897d12d0d7)),
    ("north-last-three-interior-cuts-stall", 0x6a33472459efc633, None),
    ("north-last-one-cut-low-load", 0x296023c5e5323b7e, None),
    ("xy-cut-routing-faults", 0x4eac457328bccb88, Some(0x3e924bf945c7e9bb)),
    ("all-turns-deadlock", 0xccad8107379341a0, Some(0xf6b17e9c517cdb75)),
    ("naive-torus-deadlock", 0x063af50926d4e1c0, Some(0xc0768576dba16fbe)),
    ("dateline-torus-pressure", 0xb9133dee02335831, None),
    ("dateline-torus-5x3-low-load", 0x3a9ca49cb67b7fbf, None),
    ("partial-3d-elevator-first", 0x8003e712ae2d5823, Some(0xa5771260aebcee41)),
    ("partial-3d-table5-design", 0x505ac53fd9fb421b, None),
    ("watchdog-trips-on-congestion", 0x163642098f54ac7d, Some(0x313dcde1dd1c2321)),
    // Saturated rows, generated on `71b9b39` (the engine that repeats every
    // blocked head's selection each cycle) before blocked heads slept.
    ("saturation-16x16-west-first", 0x7b57c585144d4eb2, None),
    ("dateline-torus-most-credits-saturated", 0xaa4cff4f016244e5, None),
    ("west-first-vct-saturated", 0x2cd3f773af504d8a, Some(0xc52a3920ec5fdff2)),
    ("dyxy-2vc-single-packet-saturated", 0xb0eb7b97e0d01610, Some(0x666a6682f589aed7)),
    ("dyxy-2vc-cut-at-saturation", 0x1b94aa70e6feb535, Some(0x574486793c74a2f0)),
    ("partial-3d-elevator-first-saturated", 0xc6b40a34310a1f82, None),
];

#[test]
fn engine_matrix_digests_are_unchanged() {
    let cases = matrix::cases();
    assert!(cases.len() >= 24, "matrix shrank to {}", cases.len());
    let mut actual = Vec::new();
    for case in &cases {
        let (result, rec_digest) = if case.record {
            let mut rec = Recorder::new(RecorderConfig {
                sample_every: 50,
                ..RecorderConfig::default()
            });
            let r = simulate_traced(&case.topo, &*case.relation, &case.cfg, Some(&mut rec));
            // Recording observes the run, never steers it.
            let plain = simulate(&case.topo, &*case.relation, &case.cfg);
            assert_eq!(format!("{r:?}"), format!("{plain:?}"), "{}", case.name);
            (r, Some(matrix::fnv1a(rec.write_json().as_bytes())))
        } else {
            (simulate(&case.topo, &*case.relation, &case.cfg), None)
        };
        actual.push((
            case.name,
            matrix::fnv1a(format!("{result:?}").as_bytes()),
            rec_digest,
        ));
    }
    if actual != PINNED {
        let mut table = String::new();
        for (name, result, rec) in &actual {
            let rec = match rec {
                Some(d) => format!("Some({d:#018x})"),
                None => "None".to_string(),
            };
            table.push_str(&format!("    ({name:?}, {result:#018x}, {rec}),\n"));
        }
        panic!("engine matrix digests changed; the matrix now reads:\n{table}");
    }
}

/// The matrix covers what it claims to: both deadlocks are found with a
/// wait cycle, the faulted runs drop packets and count routing faults,
/// the watchdog trips, and the idle run stays idle.
#[test]
fn engine_matrix_scenarios_are_the_intended_ones() {
    let cases = matrix::cases();
    let run = |name: &str| {
        let case = cases
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no case {name}"));
        simulate(&case.topo, &*case.relation, &case.cfg)
    };
    for name in ["all-turns-deadlock", "naive-torus-deadlock"] {
        let r = run(name);
        assert!(!r.outcome.is_deadlock_free(), "{name}: {r}");
        assert!(r.final_wait_edges.len() >= 2, "{name}: {r}");
        assert!(r.watchdog_trips > 0, "{name}: {r}");
    }
    let cuts = run("north-last-three-top-row-cuts-saturated");
    assert!(cuts.outcome.is_deadlock_free(), "{cuts}");
    assert!(
        cuts.dropped_packets > 0 && cuts.routing_faults == 0,
        "{cuts}"
    );
    for name in [
        "north-last-three-interior-cuts-stall",
        "xy-cut-routing-faults",
    ] {
        let r = run(name);
        assert!(r.routing_faults > 0 && r.final_wait_edges.is_empty(), "{r}");
    }
    let congested = run("watchdog-trips-on-congestion");
    assert!(congested.outcome.is_deadlock_free(), "{congested}");
    assert!(congested.watchdog_trips > 0, "{congested}");
    assert_eq!(run("zero-rate-xy").injected_packets, 0);
    let undrained = run("undrained-horizon-xy");
    assert!(undrained.delivered_packets < undrained.injected_packets);
}
