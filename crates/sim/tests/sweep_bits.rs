//! Sweeps that never read raw latencies do not collect them — and
//! return exactly what they returned when they did.

use ebda_routing::classic::DimensionOrder;
use ebda_routing::Topology;
use noc_sim::sweep::{replicate_seed, replicate_with_threads, MeanStd};
use noc_sim::{saturation_rate, simulate, Outcome, SimConfig};

/// `saturation_rate` and `replicate_with_threads` read only means,
/// counts and outcomes, so they run without the raw latency vector; what
/// they return is bit-identical to running with it.
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

    // The replication, re-done here on full results.
    let cfg = SimConfig {
        injection_rate: 0.04,
        ..base
    };
    let full: Vec<_> = (0..4)
        .map(|i| {
            let run = SimConfig {
                seed: replicate_seed(cfg.seed, i),
                ..cfg.clone()
            };
            simulate(&topo, &xy, &run)
        })
        .collect();
    let mean_std = |xs: Vec<f64>| {
        let mean = xs.iter().sum::<f64>() / 4.0;
        let std = (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 3.0).sqrt();
        MeanStd { mean, std }
    };
    let rep = replicate_with_threads(&topo, &xy, &cfg, 4, 1);
    assert_eq!(
        rep.latency,
        mean_std(full.iter().map(|r| r.avg_latency).collect())
    );
    assert_eq!(
        rep.throughput,
        mean_std(full.iter().map(|r| r.throughput).collect())
    );
    assert!(rep.latency.std > 0.0 && rep.clean_runs == 4);
}
