//! Loopback integration test: run real simulations with live metrics
//! and the profiler enabled, assert the deterministic side of both is
//! byte-identical across identical-seed runs, then scrape `/metrics` over
//! HTTP and validate the exposition end to end.
//!
//! Everything lives in ONE test function: the metrics registry and the
//! profiler are process-global, and the default parallel test runner
//! would otherwise interleave flushes from concurrent tests.

use ebda_obs::metrics::{self, parse_exposition, quantile_from_buckets, RenderOptions, Sample};
use ebda_obs::{http_get, MetricsServer};
use ebda_routing::classic::DimensionOrder;
use ebda_routing::Topology;
use noc_sim::{simulate, SimConfig};

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

fn value(samples: &[Sample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

#[test]
fn live_sim_metrics_scrape_end_to_end() {
    metrics::set_enabled(true);
    ebda_obs::prof::set_enabled(true);
    let topo = Topology::mesh(&[4, 4]);
    let cfg = small_cfg();
    let det = RenderOptions {
        deterministic: true,
    };

    // Identical-seed runs against clean registries render byte-identically:
    // the registry's gauges, histograms and channel counters (wall-clock
    // `_ns` families excluded) and the profiler's counts behind every
    // other counter family.
    let deterministic = || {
        let counts = ebda_obs::prof::snapshot().counters_text();
        (metrics::global().render(det), counts)
    };
    metrics::global().reset();
    ebda_obs::prof::reset();
    let r1 = simulate(&topo, &DimensionOrder::xy(), &cfg);
    let first = deterministic();
    metrics::global().reset();
    ebda_obs::prof::reset();
    let r2 = simulate(&topo, &DimensionOrder::xy(), &cfg);
    let second = deterministic();
    assert_eq!(first, second, "identical-seed expositions diverged");
    assert_eq!(r1.delivered_packets, r2.delivered_packets);
    assert!(!first.0.is_empty() && !first.1.is_empty());

    // Scrape the live endpoint over loopback HTTP.
    let server = MetricsServer::serve("127.0.0.1:0", None, None).expect("bind loopback");
    let addr = server.local_addr().to_string();
    assert!(http_get(&addr, "/healthz")
        .unwrap()
        .starts_with("ok uptime_seconds="));
    let body = http_get(&addr, "/metrics").unwrap();
    server.shutdown();
    metrics::set_enabled(false);
    ebda_obs::prof::set_enabled(false);

    let samples = parse_exposition(&body).expect("scraped exposition parses");

    // Run counters reflect exactly the one run since the last reset.
    assert_eq!(value(&samples, "ebda_sim_runs_total"), Some(1.0));
    assert_eq!(
        value(&samples, "ebda_sim_packets_delivered_total"),
        Some(r2.delivered_packets as f64)
    );
    assert_eq!(
        value(&samples, "ebda_sim_packets_injected_total"),
        Some(r2.injected_packets as f64)
    );

    // The latency histogram counts every *measured* delivery (mirroring
    // `SimResult::latencies`), and a scraper reconstructing quantiles from
    // the `_bucket` lines lands within the shared 6.25% error bound of the
    // engine's own histogram.
    assert_eq!(
        value(&samples, "ebda_sim_packet_latency_cycles_count"),
        Some(r2.measured_delivered as f64)
    );
    let buckets: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == "ebda_sim_packet_latency_cycles_bucket")
        .map(|s| {
            let le = match s.label("le").unwrap() {
                "+Inf" => f64::INFINITY,
                v => v.parse().unwrap(),
            };
            (le, s.value)
        })
        .collect();
    assert!(buckets.iter().any(|&(le, _)| le.is_infinite()));
    for q in [0.50, 0.99] {
        let direct = r2.latency_hist.quantile(q).unwrap() as f64;
        let scraped = quantile_from_buckets(&buckets, q).unwrap();
        assert!(
            (scraped - direct).abs() <= direct * 0.0625 + 1.0,
            "q={q}: scraped {scraped} vs direct {direct}"
        );
    }

    // Per-channel utilization gauges carry the full label vocabulary and
    // sane values; the flit counters match the run's channel loads.
    let utils: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "ebda_sim_channel_utilization")
        .collect();
    assert!(!utils.is_empty(), "no per-channel utilization gauges");
    for s in &utils {
        for key in ["node", "dim", "dir", "vc"] {
            assert!(s.label(key).is_some(), "missing label {key}: {s:?}");
        }
        assert!(
            s.value.is_finite() && s.value >= 0.0,
            "bad utilization {s:?}"
        );
    }
    let total_flits: u64 = r2.channel_flits.iter().sum();
    let scraped_flits: f64 = samples
        .iter()
        .filter(|s| s.name == "ebda_sim_channel_flits_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(scraped_flits, total_flits as f64);

    // The profiler's phases are in the exposition too: one `sim/run`
    // call since the last reset.
    assert!(
        samples.iter().any(|s| {
            s.name == "ebda_prof_phase_calls_total"
                && s.label("phase") == Some("sim/run")
                && s.value == 1.0
        }),
        "sim/run phase missing from the exposition"
    );
}
