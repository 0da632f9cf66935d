//! Full latency/throughput sweep across designs, traffic patterns and
//! injection rates, emitted as CSV for plotting — the data series behind
//! the extension experiments E1/E2. The matrix itself lives in
//! [`ebda_bench::sweep_matrix`]; this binary only parses flags.
//!
//! Usage: `cargo run --release -p ebda-bench --bin sweep [out.csv]`
//! (defaults to stdout). Columns:
//! `design,traffic,rate,policy,avg_latency,p50_latency,p99_latency,p999_latency,throughput,balance_cv,outcome`
//!
//! Quantiles come from the engine's log-bucketed latency histograms
//! (≤6.25% relative error); the raw per-packet latency vector and its
//! per-point sort are skipped entirely.
//!
//! Points run in parallel (`--threads N`, env `EBDA_THREADS`, default
//! hardware parallelism) and the CSV is byte-identical at every thread
//! count — rows merge in matrix order, not completion order.
//!
//! Observability: `--trace-out <path>` (or `EBDA_TRACE`) is a synonym
//! of `--profile-out` here; `--journey-out <path>` (or
//! `EBDA_JOURNEY_OUT`) records per-packet journeys of every point —
//! one Chrome-trace "process" per point, thinned with
//! `--journey-sample-rate <p>` — and writes the merged timeline on
//! exit; `--metrics-addr <host:port>` (or `EBDA_METRICS_ADDR`) serves
//! live Prometheus metrics at `/metrics` while the sweep runs, with
//! `--metrics-linger <secs>` keeping the endpoint up after the last
//! point so scrapers can collect the final state; `--profile-out
//! <path>` (or `EBDA_PROFILE_OUT`) enables the deterministic
//! self-profiler and writes the phase/worker report on exit (render
//! with `ebda profile <path>`). `--quick` shrinks the matrix to a
//! smoke-test size.

use ebda_bench::sweep_matrix::run_sweep;
use ebda_bench::trace::{write_profile, ObsOptions};
use std::io::Write;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut obs = ObsOptions::parse(&mut args);
    obs.activate_aggregate();
    let quick = match args.iter().position(|a| a == "--quick") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };

    let result = run_sweep(quick, obs.threads, obs.journey_config());

    match args.first() {
        Some(path) => {
            std::fs::File::create(path)
                .and_then(|mut f| f.write_all(result.csv.as_bytes()))
                .expect("write output file");
        }
        None => {
            std::io::stdout()
                .lock()
                .write_all(result.csv.as_bytes())
                .expect("write csv");
        }
    }
    if let Some(path) = &obs.trace {
        write_profile(path);
    }
    if let (Some(mut builder), Some(path)) = (result.journeys, &obs.journey) {
        // With the profiler on, the worker busy timeline renders next to
        // the per-point packet journeys in the same Perfetto tab.
        if ebda_obs::prof::enabled() {
            builder.add_worker_timeline("workers", &ebda_obs::prof::snapshot().workers);
        }
        std::fs::write(path, builder.finish())
            .unwrap_or_else(|e| panic!("write journey {}: {e}", path.display()));
        eprintln!(
            "journeys: merged sweep timeline written to {}",
            path.display()
        );
    }
    obs.finish();
}
