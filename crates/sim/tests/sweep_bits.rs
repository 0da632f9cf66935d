//! Sweeps that never read raw latencies do not collect them — and
//! return exactly what they returned when they did.

use ebda_routing::classic::DimensionOrder;
use ebda_routing::Topology;
use noc_sim::{saturation_rate, simulate, sweep, Outcome, SimConfig};

/// `saturation_rate` reads only counts and outcomes, and `sweep::run`
/// only means, histogram quantiles and outcomes, so both run without the
/// raw latency vector; what they return is bit-identical to running with
/// it.
#[test]
fn sweeps_skip_raw_latencies_without_changing_their_answers() {
    let topo = Topology::mesh(&[4, 4]);
    let xy = DimensionOrder::xy();
    let base = SimConfig {
        warmup: 200,
        measurement: 800,
        drain: 1_200,
        deadlock_threshold: 800,
        ..SimConfig::default()
    };
    assert!(base.collect_latencies);

    // The bisection, re-done here on full results.
    let drained_at = |rate: f64| {
        let r = simulate(
            &topo,
            &xy,
            &SimConfig {
                injection_rate: rate,
                ..base.clone()
            },
        );
        assert!(!r.latencies.is_empty());
        assert_eq!(r.outcome, Outcome::Completed);
        r.measured_delivered == r.measured_injected
    };
    let (mut lo, mut hi) = (0.01, 0.6);
    assert!(drained_at(lo));
    while hi - lo > 0.05 {
        let mid = (lo + hi) / 2.0;
        if drained_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let sat = saturation_rate(&topo, &xy, &base, 0.01, 0.6, 0.05).expect("drains at 0.01");
    assert_eq!(sat.to_bits(), lo.to_bits());

    // The sweep summary, re-read here from full results.
    let cfg = SimConfig {
        injection_rate: 0.04,
        ..base
    };
    let full = simulate(&topo, &xy, &cfg);
    assert!(!full.latencies.is_empty());
    let [point] = &sweep::run(&topo, &[(&xy, cfg)], 1, None)[..] else {
        panic!("one point in, one point out");
    };
    assert_eq!(point.avg_latency.to_bits(), full.avg_latency.to_bits());
    assert_eq!(point.throughput.to_bits(), full.throughput.to_bits());
    assert_eq!(point.p99_latency, full.latency_hist.quantile(0.99));
    assert_eq!(point.channel_balance_cv, full.channel_balance_cv());
    assert!(point.drained && !point.deadlocked);
}
