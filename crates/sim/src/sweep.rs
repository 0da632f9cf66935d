//! Load-sweep utilities: latency/throughput curves and saturation-point
//! estimation — the standard NoC evaluation loop, packaged.

use crate::config::SimConfig;
use crate::engine::simulate;
use crate::metrics::{Outcome, SimResult};
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
}

impl SweepPoint {
    fn from_result(rate: f64, r: &SimResult) -> SweepPoint {
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
        }
    }
}

/// Runs the relation at each rate and collects the curve. The `base`
/// configuration supplies everything except the injection rate.
///
/// Points run in parallel on the [`ebda_par`] pool (thread count from
/// `--threads` / `EBDA_THREADS` / hardware) and merge in rate order, so
/// the curve is identical at any thread count.
pub fn latency_curve(
    topo: &Topology,
    relation: &dyn RoutingRelation,
    base: &SimConfig,
    rates: &[f64],
) -> Vec<SweepPoint> {
    latency_curve_with_threads(topo, relation, base, rates, ebda_par::threads())
}

/// [`latency_curve`] with an explicit worker count (1 = strictly serial).
pub(crate) fn latency_curve_with_threads(
    topo: &Topology,
    relation: &dyn RoutingRelation,
    base: &SimConfig,
    rates: &[f64],
    threads: usize,
) -> Vec<SweepPoint> {
    // Each point depends only on its own rate and the shared base config,
    // so parallel_map's index-order merge reproduces the serial curve.
    ebda_par::parallel_map(threads, rates, |_, &rate| {
        let cfg = SimConfig {
            injection_rate: rate,
            // Histogram quantiles suffice: skip raw-latency storage.
            collect_latencies: false,
            ..base.clone()
        };
        SweepPoint::from_result(rate, &simulate(topo, relation, &cfg))
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

/// Mean and sample standard deviation over replicated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single replicate).
    pub std: f64,
}

/// Replicated measurements of one configuration across `seeds` RNG seeds —
/// the confidence-interval hygiene single-seed runs lack.
#[derive(Debug, Clone)]
pub struct Replication {
    /// Latency statistics over replicates.
    pub latency: MeanStd,
    /// Throughput statistics over replicates.
    pub throughput: MeanStd,
    /// Number of replicates that completed without deadlock.
    pub clean_runs: usize,
    /// Number of replicates.
    pub replicates: usize,
}

/// The seed replicate `i` of a base-seed run simulates under.
///
/// Pure function of `(base_seed, i)` — the `i`-th value of the splitmix64
/// stream seeded with `base_seed` ([`ebda_obs::Rng64::nth`]) — so a
/// replicate's result does not depend on which other replicates ran, in
/// what order, or on which worker thread. Replicate 0 is **not** the base
/// seed itself: derived seeds must be well-mixed even when callers pass
/// small sequential base seeds.
pub fn replicate_seed(base_seed: u64, i: usize) -> u64 {
    ebda_obs::Rng64::nth(base_seed, i as u64)
}

/// Runs `cfg` under `replicates` different seeds (derived from `cfg.seed`
/// via [`replicate_seed`]) and aggregates latency and throughput.
/// Replicates run on up to `threads` workers of the [`ebda_par`] pool (0
/// resolves via [`ebda_par::threads`], 1 is strictly serial) and
/// aggregate in index order.
///
/// # Panics
///
/// Panics if `replicates == 0`.
pub fn replicate_with_threads(
    topo: &Topology,
    relation: &dyn RoutingRelation,
    cfg: &SimConfig,
    replicates: usize,
    threads: usize,
) -> Replication {
    assert!(replicates >= 1, "at least one replicate");
    let indexes: Vec<usize> = (0..replicates).collect();
    let results = ebda_par::parallel_map(threads, &indexes, |_, &i| {
        let run_cfg = SimConfig {
            seed: replicate_seed(cfg.seed, i),
            // Only the mean latency, throughput and outcome are read.
            collect_latencies: false,
            ..cfg.clone()
        };
        let r = simulate(topo, relation, &run_cfg);
        let clean = matches!(r.outcome, Outcome::Completed);
        (r.avg_latency, r.throughput, clean)
    });
    let latencies: Vec<f64> = results.iter().map(|r| r.0).collect();
    let throughputs: Vec<f64> = results.iter().map(|r| r.1).collect();
    Replication {
        latency: mean_std(&latencies),
        throughput: mean_std(&throughputs),
        clean_runs: results.iter().filter(|r| r.2).count(),
        replicates,
    }
}

fn mean_std(xs: &[f64]) -> MeanStd {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let std = if xs.len() < 2 {
        0.0
    } else {
        (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)).sqrt()
    };
    MeanStd { mean, std }
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

    #[test]
    fn curve_is_monotone_at_the_low_end() {
        let topo = Topology::mesh(&[4, 4]);
        let xy = DimensionOrder::xy();
        let curve = latency_curve(&topo, &xy, &base(), &[0.01, 0.05, 0.12]);
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
    fn replication_aggregates_across_seeds() {
        let topo = Topology::mesh(&[4, 4]);
        let xy = DimensionOrder::xy();
        let cfg = SimConfig {
            injection_rate: 0.03,
            ..base()
        };
        let rep = replicate_with_threads(&topo, &xy, &cfg, 5, 0);
        assert_eq!(rep.replicates, 5);
        assert_eq!(rep.clean_runs, 5);
        assert!(rep.latency.mean > 5.0);
        // Different seeds produce (slightly) different loads.
        assert!(rep.latency.std >= 0.0);
        assert!(rep.throughput.mean > 0.0);
        // Single replicate has zero std by definition.
        let one = replicate_with_threads(&topo, &xy, &cfg, 1, 0);
        assert_eq!(one.latency.std, 0.0);
    }

    #[test]
    fn replicate_seed_is_pinned_and_order_free() {
        // The derivation is (base, i) -> Rng64::nth(base, i): pure in the
        // pair, so replicate i's world is fixed no matter what ran before
        // it. These exact values are part of the determinism contract.
        assert_eq!(replicate_seed(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(replicate_seed(0, 1), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(
            replicate_seed(0xEBDA, 0),
            ebda_obs::Rng64::new(0xEBDA).next_u64()
        );
        // Distinct replicates get distinct, well-mixed seeds even from a
        // base seed of 0.
        let seeds: Vec<u64> = (0..8).map(|i| replicate_seed(0, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
    }

    #[test]
    fn sweep_results_are_thread_count_invariant() {
        let topo = Topology::mesh(&[4, 4]);
        let xy = DimensionOrder::xy();
        let cfg = SimConfig {
            injection_rate: 0.04,
            ..base()
        };
        let rates = [0.01, 0.03, 0.05, 0.08];
        let serial = latency_curve_with_threads(&topo, &xy, &base(), &rates, 1);
        let parallel = latency_curve_with_threads(&topo, &xy, &base(), &rates, 8);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.rate, b.rate);
            assert_eq!(a.avg_latency, b.avg_latency);
            assert_eq!(a.throughput, b.throughput);
            assert_eq!(a.p99_latency, b.p99_latency);
        }
        let r1 = replicate_with_threads(&topo, &xy, &cfg, 4, 1);
        let r8 = replicate_with_threads(&topo, &xy, &cfg, 4, 8);
        assert_eq!(r1.latency, r8.latency);
        assert_eq!(r1.throughput, r8.throughput);
        assert_eq!(r1.clean_runs, r8.clean_runs);
    }

    #[test]
    fn adaptive_curve_runs_clean() {
        let topo = Topology::mesh(&[4, 4]);
        let fa = TurnRouting::from_design("dyxy", &ebda_core::catalog::fig7b_dyxy()).unwrap();
        let curve = latency_curve(&topo, &fa, &base(), &[0.02, 0.08]);
        assert!(curve.iter().all(|p| !p.deadlocked));
    }
}
