//! Clock-free pins of the event-driven core.
//!
//! The engine visits waiting heads and routers with an owned output, not
//! every slot; two deterministic profiler work units say how many that
//! was. Idle routers must cost nothing (`router_visits` a small share of
//! `nodes x cycles` at low load, zero in an idle run) and the counter
//! must still count (most router-cycles at saturation). A head that
//! cannot allocate sleeps until one of its candidates is released, so
//! past saturation too a head is looked at little more than once per
//! grant (`head_visits`), every sleep is counted (`head_sleeps`) and no
//! sleeper is left behind (`head_wakes`).
//!
//! One test function: the profiler and the metrics registry are
//! process-global, so the scenarios run one after another.

use ebda_core::catalog;
use ebda_obs::{metrics, prof};
use ebda_routing::{Topology, TurnRouting};
use noc_sim::{simulate, SimConfig};

/// Runs once with the profiler on; returns the run's cycle count and a
/// reader of its `(phase, unit)` work counters (0 when never charged).
fn profiled(topo: &Topology, cfg: &SimConfig) -> (u64, impl Fn(&str, &str) -> u64) {
    let relation = TurnRouting::from_design("west-first", &catalog::p3_west_first()).unwrap();
    prof::reset();
    prof::set_enabled(true);
    let result = simulate(topo, &relation, cfg);
    prof::set_enabled(false);
    assert!(result.outcome.is_deadlock_free(), "{result}");
    let snap = prof::snapshot();
    let work = move |phase: &str, unit: &str| {
        let stat = snap.phases.get(phase);
        stat.and_then(|s| s.work.get(unit)).copied().unwrap_or(0)
    };
    (result.cycles, work)
}

/// The benchmark's `sim-lowload` and `sim-saturation` shapes.
fn bench_cfg(rate: f64, phases: (u64, u64, u64)) -> SimConfig {
    SimConfig {
        injection_rate: rate,
        warmup: phases.0,
        measurement: phases.1,
        drain: phases.2,
        seed: 7,
        collect_latencies: false,
        ..SimConfig::default()
    }
}

/// The pins of a saturated run, which ends with heads still waiting.
fn blocked_heads_sleep(work: impl Fn(&str, &str) -> u64) {
    let heads = work("sim/run/vc_alloc", "head_visits");
    let grants = work("sim/run/vc_alloc", "vc_grants");
    assert!(
        heads >= grants && heads * 2 <= grants * 3,
        "{heads} head visits for {grants} grants"
    );
    let sleeps = work("sim/run/vc_alloc", "head_sleeps");
    let wakes = work("sim/run/vc_alloc", "head_wakes");
    assert!(
        sleeps >= 1 && wakes <= sleeps,
        "{wakes} wakes, {sleeps} sleeps"
    );
}

#[test]
fn visit_counters_and_the_sparse_fallback_are_counted() {
    // 16x16 at 0.002 packets/node/cycle: about one router-cycle in nine
    // has an owned output, and a head is looked at about once per grant.
    let topo = Topology::mesh(&[16, 16]);
    let lowload = bench_cfg(0.002, (300, 1_500, 1_000));
    let (cycles, work) = profiled(&topo, &lowload);
    let router_cycles = topo.node_count() as u64 * cycles;
    let visits = work("sim/run/switch", "router_visits");
    let heads = work("sim/run/vc_alloc", "head_visits");
    let grants = work("sim/run/vc_alloc", "vc_grants");
    assert!(
        visits > 0 && visits * 100 <= router_cycles * 15,
        "{visits} router visits in {router_cycles} router-cycles"
    );
    assert!(
        heads >= grants && heads <= 2 * grants,
        "{heads} head visits for {grants} grants"
    );
    assert_eq!(work("sim/run", "delivered_log_sparse_fallbacks"), 0);
    // The run drains and has no fault: whoever slept was woken by a release.
    let sleeps = work("sim/run/vc_alloc", "head_sleeps");
    assert!(sleeps >= 1, "nobody slept at low load");
    assert_eq!(work("sim/run/vc_alloc", "head_wakes"), sleeps);

    // Nothing injected: nothing visited.
    let idle = SimConfig {
        injection_rate: 0.0,
        ..lowload.clone()
    };
    let (cycles, work) = profiled(&topo, &idle);
    assert!(cycles > 1_000);
    assert_eq!(work("sim/run/switch", "router_visits"), 0);
    assert_eq!(work("sim/run/vc_alloc", "head_visits"), 0);
    assert_eq!(work("sim/run/vc_alloc", "head_sleeps"), 0);
    assert_eq!(work("sim/run/vc_alloc", "head_wakes"), 0);

    // 8x8 past the knee: the counter still counts.
    let topo = Topology::mesh(&[8, 8]);
    let (cycles, work) = profiled(&topo, &bench_cfg(0.07, (500, 1_500, 500)));
    let router_cycles = topo.node_count() as u64 * cycles;
    let visits = work("sim/run/switch", "router_visits");
    assert!(
        visits * 2 >= router_cycles && visits <= router_cycles,
        "{visits} router visits in {router_cycles} router-cycles"
    );

    // Past the knee, there and on 16x16, blocked heads sleep: a head is
    // looked at when it arrives and when a candidate of its is released,
    // not every cycle it waits (3.8 and 5.5 visits per grant before).
    blocked_heads_sleep(work);
    let topo = Topology::mesh(&[16, 16]);
    blocked_heads_sleep(profiled(&topo, &bench_cfg(0.035, (500, 1_500, 500))).1);

    // 46x46 = 2116 nodes is past the dense reorder table's 2^22 pairs:
    // the hash-map fallback is chosen, and counted both ways.
    let big = Topology::mesh(&[46, 46]);
    metrics::global().reset();
    metrics::set_enabled(true);
    let (_, work) = profiled(&big, &bench_cfg(0.0, (0, 1, 0)));
    metrics::set_enabled(false);
    assert_eq!(work("sim/run", "delivered_log_sparse_fallbacks"), 1);
    let samples = metrics::parse_exposition(&metrics::render_global()).unwrap();
    let counter = "ebda_sim_delivered_log_sparse_fallbacks_total";
    let fallbacks = samples.iter().find(|s| s.name == counter).map(|s| s.value);
    assert_eq!(fallbacks, Some(1.0));
}
