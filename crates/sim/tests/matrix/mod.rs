//! The seeded configuration matrix that pins the engine's observable
//! behaviour: every [`Case`] is one `(topology, relation, SimConfig)`
//! whose whole `SimResult` — and, for `record` cases, the flight
//! recorder's event stream and samples — must not change when the engine
//! gets faster.
//!
//! Shared by `tests/engine_matrix.rs` (digests pinned on the commit before
//! the event-driven core) and by the engine's in-crate differential test
//! (event-driven visit vs. every mask bit forced on).

use ebda_core::{catalog, Dimension, Direction, Turn, TurnSet};
use ebda_routing::classic::{DimensionOrder, ElevatorFirst, OddEven, TorusDateline};
use ebda_routing::{RoutingRelation, Topology, TurnRouting};
use noc_sim::{BufferPolicy, Selection, SimConfig, Switching, TrafficPattern};

/// One pinned configuration.
pub struct Case {
    pub name: &'static str,
    pub topo: Topology,
    pub relation: Box<dyn RoutingRelation>,
    pub cfg: SimConfig,
    /// Also pin the recorder's events and samples.
    pub record: bool,
}

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn design(name: &str, seq: &ebda_core::PartitionSeq) -> Box<dyn RoutingRelation> {
    Box::new(TurnRouting::from_design(name, seq).expect("catalog design is valid"))
}

fn west_first() -> Box<dyn RoutingRelation> {
    design("west-first", &catalog::p3_west_first())
}

fn dyxy() -> Box<dyn RoutingRelation> {
    design("dyxy", &catalog::fig7b_dyxy())
}

fn xy() -> Box<dyn RoutingRelation> {
    Box::new(DimensionOrder::xy())
}

/// Every 90-degree turn allowed on one VC: the cyclic positive control.
fn all_turns() -> Box<dyn RoutingRelation> {
    let universe = ebda_core::parse_channels("X+ X- Y+ Y-").expect("static list parses");
    let mut turns = TurnSet::new();
    for &a in &universe {
        for &b in &universe {
            if a != b && a.dim != b.dim {
                turns.insert(Turn::new(a, b));
            }
        }
    }
    Box::new(TurnRouting::new("all-turns", universe, turns))
}

fn partial_3d() -> Topology {
    Topology::mesh(&[3, 3, 2]).with_partial_dim(Dimension::Z, [vec![0, 0], vec![2, 2]])
}

/// Short phases: the matrix runs in debug builds with a per-cycle
/// mask-vs-state assertion.
fn cfg(rate: f64, seed: u64) -> SimConfig {
    SimConfig {
        injection_rate: rate,
        warmup: 100,
        measurement: 500,
        drain: 900,
        deadlock_threshold: 400,
        seed,
        ..SimConfig::default()
    }
}

fn deadlock_cfg(rate: f64, seed: u64) -> SimConfig {
    SimConfig {
        injection_rate: rate,
        packet_length: 8,
        buffer_depth: 2,
        warmup: 0,
        measurement: 4_000,
        drain: 500,
        deadlock_threshold: 300,
        seed,
        ..SimConfig::default()
    }
}

/// The matrix. Names are the keys of the pinned digest table.
pub fn cases() -> Vec<Case> {
    let mesh = |r: &[usize]| Topology::mesh(r);
    let mut v: Vec<Case> = Vec::new();
    let mut add = |name, topo, relation, cfg, record| {
        v.push(Case {
            name,
            topo,
            relation,
            cfg,
            record,
        })
    };

    // The two benchmark shapes.
    add(
        "lowload-16x16-west-first",
        mesh(&[16, 16]),
        west_first(),
        SimConfig {
            injection_rate: 0.002,
            warmup: 300,
            measurement: 1_500,
            drain: 1_000,
            seed: 7,
            ..SimConfig::default()
        },
        true,
    );
    add(
        "saturation-8x8-west-first",
        mesh(&[8, 8]),
        west_first(),
        SimConfig {
            injection_rate: 0.07,
            warmup: 500,
            measurement: 1_500,
            drain: 500,
            seed: 7,
            ..SimConfig::default()
        },
        false,
    );

    // Load levels on the deterministic baseline.
    add("zero-rate-xy", mesh(&[4, 4]), xy(), cfg(0.0, 1), true);
    add("mid-load-xy", mesh(&[4, 4]), xy(), cfg(0.05, 2), true);
    add(
        "undrained-horizon-xy",
        mesh(&[4, 4]),
        xy(),
        SimConfig {
            drain: 0,
            ..cfg(0.3, 3)
        },
        false,
    );

    // Adaptive relations, both selections, 1 and 2 VCs.
    add(
        "odd-even-design-transpose",
        mesh(&[6, 6]),
        design("odd-even", &catalog::odd_even()),
        SimConfig {
            traffic: TrafficPattern::Transpose,
            ..cfg(0.04, 4)
        },
        false,
    );
    add(
        "odd-even-classic-most-credits",
        mesh(&[5, 5]),
        Box::new(OddEven::new()),
        SimConfig {
            selection: Selection::MostCredits,
            ..cfg(0.08, 5)
        },
        false,
    );
    add(
        "dyxy-2vc-saturated",
        mesh(&[4, 4]),
        dyxy(),
        cfg(0.2, 6),
        true,
    );
    add(
        "dyxy-2vc-most-credits-transpose",
        mesh(&[5, 5]),
        dyxy(),
        SimConfig {
            selection: Selection::MostCredits,
            traffic: TrafficPattern::Transpose,
            ..cfg(0.1, 7)
        },
        false,
    );
    add(
        "dyxy-2vc-single-packet-most-credits",
        mesh(&[4, 4]),
        dyxy(),
        SimConfig {
            selection: Selection::MostCredits,
            buffer_policy: BufferPolicy::SinglePacket,
            ..cfg(0.2, 8)
        },
        false,
    );
    add(
        "west-first-single-packet",
        mesh(&[4, 4]),
        west_first(),
        SimConfig {
            buffer_policy: BufferPolicy::SinglePacket,
            ..cfg(0.08, 9)
        },
        false,
    );

    // Switching modes.
    let deep = |switching, rate, seed| SimConfig {
        switching,
        buffer_depth: 8,
        ..cfg(rate, seed)
    };
    add(
        "west-first-vct",
        mesh(&[4, 4]),
        west_first(),
        deep(Switching::VirtualCutThrough, 0.06, 10),
        false,
    );
    add(
        "west-first-saf",
        mesh(&[4, 4]),
        west_first(),
        deep(Switching::StoreAndForward, 0.06, 11),
        true,
    );
    add(
        "west-first-saf-saturated",
        mesh(&[4, 4]),
        west_first(),
        deep(Switching::StoreAndForward, 0.25, 12),
        false,
    );
    add(
        "dyxy-vct-link-latency-3",
        mesh(&[4, 4]),
        dyxy(),
        SimConfig {
            link_latency: 3,
            ..deep(Switching::VirtualCutThrough, 0.1, 13)
        },
        false,
    );

    // Packet and buffer shapes at the edges.
    add(
        "single-flit-packets-depth-1",
        mesh(&[4, 4]),
        west_first(),
        SimConfig {
            packet_length: 1,
            buffer_depth: 1,
            ..cfg(0.3, 14)
        },
        true,
    );
    add(
        "long-packets-shallow-buffers",
        mesh(&[5, 5]),
        dyxy(),
        SimConfig {
            packet_length: 12,
            buffer_depth: 2,
            ..cfg(0.03, 15)
        },
        false,
    );

    // Traffic patterns.
    let bursty = TrafficPattern::Bursty {
        p_on: 0.02,
        p_off: 0.08,
        burst_scale: 5.0,
    };
    add(
        "bursty-xy",
        mesh(&[4, 4]),
        xy(),
        SimConfig {
            traffic: bursty.clone(),
            ..cfg(0.05, 16)
        },
        true,
    );
    add(
        "bursty-west-first-saturated",
        mesh(&[8, 8]),
        west_first(),
        SimConfig {
            traffic: bursty,
            ..cfg(0.08, 17)
        },
        false,
    );
    add(
        "trace-xy",
        mesh(&[4, 4]),
        xy(),
        SimConfig {
            traffic: TrafficPattern::trace((0..120u64).map(|i| {
                (
                    i * 3 / 2,
                    (i * 7 % 16) as usize,
                    ((i * 7 + 5) % 16) as usize,
                )
            })),
            ..cfg(0.0, 18)
        },
        true,
    );
    add(
        "hotspot-west-first",
        mesh(&[5, 5]),
        west_first(),
        SimConfig {
            traffic: TrafficPattern::Hotspot {
                nodes: vec![12, 3],
                fraction: 0.4,
            },
            ..cfg(0.06, 19)
        },
        false,
    );
    add(
        "bit-complement-xyz",
        mesh(&[3, 3, 3]),
        Box::new(DimensionOrder::xyz()),
        SimConfig {
            traffic: TrafficPattern::BitComplement,
            ..cfg(0.08, 20)
        },
        false,
    );

    // Link latency.
    add(
        "link-latency-3-xy",
        mesh(&[4, 4]),
        xy(),
        SimConfig {
            link_latency: 3,
            ..cfg(0.03, 21)
        },
        true,
    );
    add(
        "link-latency-3-west-first-saturated",
        mesh(&[4, 4]),
        west_first(),
        SimConfig {
            link_latency: 3,
            ..cfg(0.2, 22)
        },
        false,
    );

    // Faults in a saturated mesh: three top-row cuts north-last detours
    // around (wormholes severed, heads re-routed, the run completes),
    // three interior cuts it cannot always detour around (routing faults
    // counted every cycle until the stall verdict), one cut at low load,
    // and a cut deterministic XY has no way around.
    let m6 = mesh(&[6, 6]);
    let three_cuts = |cuts: [(u64, [i64; 2], Dimension); 3]| SimConfig {
        fault_schedule: cuts
            .iter()
            .map(|&(cycle, at, dim)| (cycle, m6.node_at(&at), dim, Direction::Plus))
            .collect(),
        watchdog_window: 60,
        warmup: 100,
        measurement: 900,
        drain: 2_500,
        deadlock_threshold: 2_000,
        ..cfg(0.12, 23)
    };
    add(
        "north-last-three-top-row-cuts-saturated",
        m6.clone(),
        design("north-last", &catalog::north_last()),
        three_cuts([
            (300, [1, 5], Dimension::X),
            (450, [3, 5], Dimension::X),
            (600, [4, 5], Dimension::X),
        ]),
        true,
    );
    add(
        "north-last-three-interior-cuts-stall",
        m6.clone(),
        design("north-last", &catalog::north_last()),
        three_cuts([
            (300, [2, 3], Dimension::X),
            (450, [3, 2], Dimension::Y),
            (600, [1, 1], Dimension::X),
        ]),
        false,
    );
    let m5 = mesh(&[5, 5]);
    add(
        "north-last-one-cut-low-load",
        m5.clone(),
        design("north-last", &catalog::north_last()),
        SimConfig {
            fault_schedule: vec![(250, m5.node_at(&[1, 4]), Dimension::X, Direction::Plus)],
            ..cfg(0.03, 24)
        },
        false,
    );
    add(
        "xy-cut-routing-faults",
        mesh(&[4, 4]),
        design("xy", &catalog::p1_xy()),
        SimConfig {
            fault_schedule: vec![(200, 5, Dimension::X, Direction::Plus)],
            watchdog_window: 80,
            ..cfg(0.05, 25)
        },
        true,
    );

    // Deadlocks: the cyclic positive control and the naive torus, with
    // the online watchdog ahead of the verdict.
    add(
        "all-turns-deadlock",
        mesh(&[4, 4]),
        all_turns(),
        SimConfig {
            watchdog_window: 100,
            ..deadlock_cfg(0.5, 26)
        },
        true,
    );
    add(
        "naive-torus-deadlock",
        Topology::torus(&[4, 4]),
        Box::new(TorusDateline::without_dateline(2)),
        SimConfig {
            watchdog_window: 150,
            ..deadlock_cfg(0.35, 27)
        },
        true,
    );
    add(
        "dateline-torus-pressure",
        Topology::torus(&[4, 4]),
        Box::new(TorusDateline::new(2)),
        SimConfig {
            measurement: 1_500,
            ..deadlock_cfg(0.35, 28)
        },
        false,
    );
    add(
        "dateline-torus-5x3-low-load",
        Topology::torus(&[5, 3]),
        Box::new(TorusDateline::new(2)),
        cfg(0.002, 29),
        false,
    );

    // Partial 3D: 2/2/1 VCs per dimension, missing vertical links.
    add(
        "partial-3d-elevator-first",
        partial_3d(),
        Box::new(ElevatorFirst::new([vec![0, 0], vec![2, 2]])),
        cfg(0.05, 30),
        true,
    );
    add(
        "partial-3d-table5-design",
        partial_3d(),
        design("table5", &catalog::table5_partial3d()),
        SimConfig {
            selection: Selection::MostCredits,
            ..cfg(0.06, 31)
        },
        false,
    );

    // The watchdog tripping on congestion without a deadlock.
    add(
        "watchdog-trips-on-congestion",
        mesh(&[3, 3]),
        west_first(),
        SimConfig {
            watchdog_window: 2,
            buffer_depth: 2,
            link_latency: 3,
            ..cfg(0.3, 32)
        },
        true,
    );

    // Saturation with blocked heads everywhere: the configurations where
    // a head waits many cycles on output VCs (or an ejection port) that
    // stay taken, on each way a candidate can be infeasible — owned
    // (wormhole), not empty downstream (SinglePacket), no room for the
    // whole packet (VCT) — and with the routes dropped mid-wait (a cut).
    add(
        "saturation-16x16-west-first",
        mesh(&[16, 16]),
        west_first(),
        SimConfig {
            injection_rate: 0.035,
            warmup: 500,
            measurement: 1_500,
            drain: 500,
            seed: 7,
            ..SimConfig::default()
        },
        false,
    );
    add(
        "dateline-torus-most-credits-saturated",
        Topology::torus(&[6, 6]),
        Box::new(TorusDateline::new(2)),
        SimConfig {
            selection: Selection::MostCredits,
            measurement: 1_200,
            ..deadlock_cfg(0.3, 33)
        },
        false,
    );
    add(
        "west-first-vct-saturated",
        mesh(&[5, 5]),
        west_first(),
        deep(Switching::VirtualCutThrough, 0.25, 34),
        true,
    );
    add(
        "dyxy-2vc-single-packet-saturated",
        mesh(&[5, 5]),
        dyxy(),
        SimConfig {
            buffer_policy: BufferPolicy::SinglePacket,
            ..cfg(0.25, 35)
        },
        true,
    );
    add(
        "dyxy-2vc-cut-at-saturation",
        m5.clone(),
        dyxy(),
        SimConfig {
            fault_schedule: vec![
                (350, m5.node_at(&[2, 2]), Dimension::X, Direction::Plus),
                (500, m5.node_at(&[1, 3]), Dimension::Y, Direction::Plus),
            ],
            watchdog_window: 60,
            ..cfg(0.3, 36)
        },
        true,
    );
    add(
        "partial-3d-elevator-first-saturated",
        partial_3d(),
        Box::new(ElevatorFirst::new([vec![0, 0], vec![2, 2]])),
        cfg(0.3, 37),
        false,
    );
    v
}
