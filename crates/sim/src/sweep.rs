//! Load sweeps: a batch of simulations summarised point by point
//! ([`run`]), and saturation-point estimation by bisection — the standard
//! NoC evaluation loop, packaged.

use crate::config::SimConfig;
use crate::engine::{simulate, simulate_traced};
use crate::metrics::{Outcome, SimResult};
use ebda_obs::{JourneyConfig, Recorder, RecorderConfig};
use ebda_routing::{RoutingRelation, Topology};

/// One point of a load sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered injection rate (packets/node/cycle).
    pub rate: f64,
    /// Mean latency of measured, delivered packets.
    pub avg_latency: f64,
    /// Median latency, when available.
    pub p50_latency: Option<u64>,
    /// 99th-percentile latency, when available.
    pub p99_latency: Option<u64>,
    /// 99.9th-percentile latency, when available.
    pub p999_latency: Option<u64>,
    /// Accepted throughput (flits/node/cycle).
    pub throughput: f64,
    /// Channel load-balance CV ([`SimResult::channel_balance_cv`]), when
    /// any flits moved.
    pub channel_balance_cv: Option<f64>,
    /// Whether every measured packet drained before the horizon.
    pub drained: bool,
    /// Whether the watchdog fired.
    pub deadlocked: bool,
    /// The point's journey-only recorder, when [`run`] was asked for
    /// journeys.
    pub journeys: Option<Recorder>,
}

impl SweepPoint {
    fn from_result(rate: f64, r: &SimResult, journeys: Option<Recorder>) -> SweepPoint {
        // Quantiles come from the log-bucketed histogram, not the raw
        // vector — sweeps run with `collect_latencies: false` and skip the
        // per-point O(n log n) sort entirely.
        ebda_obs::prof::work("sweep/run", "points", 1);
        SweepPoint {
            rate,
            avg_latency: r.avg_latency,
            p50_latency: r.latency_hist.quantile(0.50),
            p99_latency: r.latency_hist.quantile(0.99),
            p999_latency: r.latency_hist.quantile(0.999),
            throughput: r.throughput,
            channel_balance_cv: r.channel_balance_cv(),
            drained: r.measured_delivered == r.measured_injected,
            deadlocked: !matches!(r.outcome, Outcome::Completed),
            journeys,
        }
    }
}

/// Simulates every `(relation, config)` point on one `topo` and returns
/// their summaries in point order: the one place a batch of simulations
/// runs.
///
/// Points run on up to `threads` workers of the [`ebda_par`] pool (0
/// resolves via [`ebda_par::threads`], 1 is strictly serial). Each point
/// depends only on itself, so the index-order merge makes the result
/// identical at any thread count. Raw latencies are never collected: the
/// quantiles come from the histogram. With `journeys`, each point runs
/// with its own journey-only recorder — a modest event ring (journeys
/// themselves are never evicted) and no periodic samples — returned in
/// [`SweepPoint::journeys`].
pub fn run(
    topo: &Topology,
    points: &[(&dyn RoutingRelation, SimConfig)],
    threads: usize,
    journeys: Option<&JourneyConfig>,
) -> Vec<SweepPoint> {
    ebda_par::parallel_map(threads, points, |_, (relation, cfg)| {
        let mut rec = journeys.map(|jcfg| {
            let mut rec = Recorder::new(RecorderConfig {
                capacity: 1024,
                sample_every: 0,
            });
            rec.enable_journeys(jcfg.clone());
            rec
        });
        let cfg = SimConfig {
            collect_latencies: false,
            ..cfg.clone()
        };
        let r = simulate_traced(topo, *relation, &cfg, rec.as_mut());
        SweepPoint::from_result(cfg.injection_rate, &r, rec)
    })
}

/// Estimates the saturation rate by bisection: the highest rate (within
/// `tolerance`) at which every measured packet still drains. Returns
/// `None` if the relation saturates below `lo` or deadlocks anywhere.
pub fn saturation_rate(
    topo: &Topology,
    relation: &dyn RoutingRelation,
    base: &SimConfig,
    mut lo: f64,
    mut hi: f64,
    tolerance: f64,
) -> Option<f64> {
    assert!(lo < hi && tolerance > 0.0, "bad bisection bounds");
    let drained_at = |rate: f64| -> Option<bool> {
        let cfg = SimConfig {
            injection_rate: rate,
            // Only drain counts and the outcome are read.
            collect_latencies: false,
            ..base.clone()
        };
        let r = simulate(topo, relation, &cfg);
        match r.outcome {
            Outcome::Completed => Some(r.measured_delivered == r.measured_injected),
            Outcome::Deadlocked { .. } => None,
        }
    };
    if !drained_at(lo)? {
        return None;
    }
    while hi - lo > tolerance {
        let mid = (lo + hi) / 2.0;
        match drained_at(mid) {
            Some(true) => lo = mid,
            Some(false) => hi = mid,
            None => return None,
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_routing::classic::DimensionOrder;
    use ebda_routing::TurnRouting;

    fn base() -> SimConfig {
        SimConfig {
            warmup: 200,
            measurement: 800,
            drain: 1_200,
            deadlock_threshold: 800,
            ..SimConfig::default()
        }
    }

    /// One point per rate, everything else from [`base`].
    fn at_rates<'a>(
        relation: &'a dyn RoutingRelation,
        rates: &[f64],
    ) -> Vec<(&'a dyn RoutingRelation, SimConfig)> {
        let at = |rate| SimConfig {
            injection_rate: rate,
            ..base()
        };
        rates.iter().map(|&rate| (relation, at(rate))).collect()
    }

    #[test]
    fn curve_is_monotone_at_the_low_end() {
        let topo = Topology::mesh(&[4, 4]);
        let xy = DimensionOrder::xy();
        let curve = run(&topo, &at_rates(&xy, &[0.01, 0.05, 0.12]), 0, None);
        assert_eq!(curve.len(), 3);
        assert!(curve[0].drained && curve[1].drained);
        assert!(!curve[0].deadlocked);
        assert!(
            curve[2].avg_latency >= curve[0].avg_latency,
            "latency should not drop with load"
        );
        assert!(curve[2].throughput >= curve[0].throughput * 2.0);
        for p in &curve {
            assert!(p.p99_latency.unwrap_or(0) as f64 >= p.avg_latency * 0.8);
            assert!(p.p50_latency.unwrap() <= p.p99_latency.unwrap());
            assert!(p.p99_latency.unwrap() <= p.p999_latency.unwrap());
            assert!(p.channel_balance_cv.unwrap() >= 0.0);
            assert!(p.journeys.is_none());
        }
    }

    #[test]
    fn saturation_estimate_is_reasonable() {
        let topo = Topology::mesh(&[4, 4]);
        let xy = DimensionOrder::xy();
        let sat = saturation_rate(&topo, &xy, &base(), 0.01, 0.6, 0.05).unwrap();
        // XY on uniform 4x4 saturates somewhere past 0.1 packets/node/cycle
        // (5-flit packets; bisection-level accuracy only).
        assert!(sat > 0.05, "saturation estimate {sat} too low");
        assert!(sat < 0.6, "saturation estimate {sat} did not bound");
    }

    #[test]
    fn saturation_none_below_lower_bound() {
        // A tiny drain window makes even the low bound fail to drain.
        let topo = Topology::mesh(&[4, 4]);
        let xy = DimensionOrder::xy();
        let cfg = SimConfig { drain: 1, ..base() };
        assert_eq!(saturation_rate(&topo, &xy, &cfg, 0.2, 0.5, 0.1), None);
    }

    #[test]
    fn sweep_results_are_thread_count_invariant() {
        let topo = Topology::mesh(&[4, 4]);
        let xy = DimensionOrder::xy();
        let points = at_rates(&xy, &[0.01, 0.03, 0.05, 0.08]);
        let journeys = JourneyConfig::default();
        let serial = run(&topo, &points, 1, Some(&journeys));
        let parallel = run(&topo, &points, 8, Some(&journeys));
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.rate, b.rate);
            assert_eq!(a.avg_latency, b.avg_latency);
            assert_eq!(a.throughput, b.throughput);
            assert_eq!(a.p99_latency, b.p99_latency);
            let traced =
                |p: &SweepPoint| p.journeys.as_ref()?.journeys().map(|t| t.journeys().len());
            assert!(traced(a).is_some_and(|n| n > 0));
            assert_eq!(traced(a), traced(b));
        }
    }

    #[test]
    fn adaptive_curve_runs_clean() {
        let topo = Topology::mesh(&[4, 4]);
        let fa = TurnRouting::from_design("dyxy", &ebda_core::catalog::fig7b_dyxy()).unwrap();
        let curve = run(&topo, &at_rates(&fa, &[0.02, 0.08]), 0, None);
        assert!(curve.iter().all(|p| !p.deadlocked));
    }
}
