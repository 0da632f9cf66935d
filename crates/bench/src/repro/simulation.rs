//! The simulator-backed extension experiments: E1/E2 and the sweep.

use crate::args::{Args, CliError};
use crate::sweep_matrix::run_sweep;
use crate::trace::{write_file, write_profile, ObsOptions};
use ebda_routing::classic::{DimensionOrder, DuatoFullyAdaptive};
use ebda_routing::{RoutingRelation, Topology, TurnRouting};
use noc_sim::{simulate, BufferPolicy, SimConfig, TrafficPattern};
use std::io::Write;

fn e1e2_cfg(rate: f64, traffic: TrafficPattern) -> SimConfig {
    SimConfig {
        injection_rate: rate,
        traffic,
        warmup: 500,
        measurement: 2_000,
        drain: 3_000,
        deadlock_threshold: 1_500,
        ..SimConfig::default()
    }
}

/// Extension experiments E1/E2 (the paper itself reports no simulations):
///
/// * **E1 — empirical deadlock freedom**: every EbDa-derived design runs at
///   and beyond saturation with the watchdog armed, under unrestricted
///   multi-packet wormhole buffers; a deliberately cyclic turn set is the
///   positive control.
/// * **E2 — packet distribution**: channel-load balance (coefficient of
///   variation) and latency of EbDa's escape-free fully adaptive design vs
///   the Duato adaptive+escape baseline, in both buffer-policy modes.
///
/// A flight-recorder trace of the representative run (ebda-dyxy, uniform,
/// rate 0.05) is `ebda simulate dyxy --mesh 8x8 --rate 0.05 --trace-out`.
pub(super) fn e1e2() {
    let topo = Topology::mesh(&[8, 8]);
    let designs: Vec<(&str, Box<dyn RoutingRelation>)> = vec![
        ("xy", Box::new(DimensionOrder::xy())),
        (
            "west-first",
            Box::new(TurnRouting::from_design("wf", &ebda_core::catalog::p3_west_first()).unwrap()),
        ),
        (
            "negative-first",
            Box::new(
                TurnRouting::from_design("nf", &ebda_core::catalog::p4_negative_first()).unwrap(),
            ),
        ),
        (
            "odd-even",
            Box::new(TurnRouting::from_design("oe", &ebda_core::catalog::odd_even()).unwrap()),
        ),
        (
            "ebda-dyxy (6ch)",
            Box::new(TurnRouting::from_design("dyxy", &ebda_core::catalog::fig7b_dyxy()).unwrap()),
        ),
        (
            "ebda-fig7c (6ch)",
            Box::new(TurnRouting::from_design("7c", &ebda_core::catalog::fig7c()).unwrap()),
        ),
    ];

    println!("E1: deadlock-freedom sweep, 8x8 mesh, multi-packet wormhole buffers");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>12}",
        "design", "rate 0.02", "rate 0.10", "rate 0.30", "verdict"
    );
    for (name, relation) in &designs {
        let mut ok = true;
        let mut cells = Vec::new();
        for rate in [0.02, 0.10, 0.30] {
            let r = simulate(
                &topo,
                relation.as_ref(),
                &e1e2_cfg(rate, TrafficPattern::Uniform),
            );
            ok &= r.outcome.is_deadlock_free() && r.routing_faults == 0;
            cells.push(format!("{:.3}", r.throughput));
        }
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>12}",
            name,
            cells[0],
            cells[1],
            cells[2],
            if ok { "no deadlock" } else { "DEADLOCK" }
        );
        assert!(ok, "{name} must stay deadlock-free");
    }
    println!("(cells are accepted throughput in flits/node/cycle)");

    // E1b: the paper's Section-2 criticism of Duato's theory, observed.
    // Duato's guarantee needs single-packet input buffers (its Assumption
    // 3); with EbDa-style unrestricted multi-packet buffers a blocked
    // header is no longer at the queue head and cannot reach the escape
    // channels.
    println!("\nE1b: Duato adaptive+escape under both buffer policies, rate 0.30");
    let duato = DuatoFullyAdaptive::new(2);
    for (pname, policy) in [
        ("single-packet (Assumption 3)", BufferPolicy::SinglePacket),
        ("multi-packet (EbDa's regime)", BufferPolicy::MultiPacket),
    ] {
        let mut c = e1e2_cfg(0.30, TrafficPattern::Uniform);
        c.buffer_policy = policy;
        // A traffic stream under which the multi-packet run exhibits the
        // deadlock (single-packet survives the same stream).
        c.seed = 1;
        let r = simulate(&topo, &duato, &c);
        println!(
            "  {:<30} {}",
            pname,
            if r.outcome.is_deadlock_free() {
                format!("no deadlock (throughput {:.3})", r.throughput)
            } else {
                format!("{}", r)
            }
        );
        if policy == BufferPolicy::SinglePacket {
            assert!(
                r.outcome.is_deadlock_free(),
                "duato must be safe under its own assumption: {r}"
            );
        }
    }
    println!(
        "  paper match: \"[Duato's] theory strongly limits the wormhole\n\
         switching technique as multiple packets cannot be resided in an\n\
         input buffer\" — the multi-packet run above shows why."
    );

    println!("\nE2: channel balance + latency at rate 0.05, transpose traffic");
    println!(
        "{:<18} {:>10} {:>12} {:>16} {:>14}",
        "design", "policy", "avg latency", "delivered/meas", "balance CV"
    );
    let dyxy = TurnRouting::from_design("dyxy", &ebda_core::catalog::fig7b_dyxy()).unwrap();
    let duato = DuatoFullyAdaptive::new(2);
    for (name, relation) in [
        ("ebda-dyxy", &dyxy as &dyn RoutingRelation),
        ("duato", &duato as &dyn RoutingRelation),
    ] {
        for (pname, policy) in [
            ("multi", BufferPolicy::MultiPacket),
            ("single", BufferPolicy::SinglePacket),
        ] {
            let mut c = e1e2_cfg(0.05, TrafficPattern::Transpose);
            c.buffer_policy = policy;
            let r = simulate(&topo, relation, &c);
            println!(
                "{:<18} {:>10} {:>12.1} {:>9}/{:<6} {:>14.3}",
                name,
                pname,
                r.avg_latency,
                r.measured_delivered,
                r.measured_injected,
                r.channel_balance_cv().unwrap_or(f64::NAN)
            );
            assert!(r.outcome.is_deadlock_free());
        }
    }
    println!(
        "\nnote: EbDa lets every channel carry traffic (no idle escape\n\
         reserve) and keeps working with multi-packet buffers, where a\n\
         faithful Duato configuration must restrict buffers to one packet."
    );
}

/// Full latency/throughput sweep across designs, traffic patterns and
/// injection rates, emitted as CSV for plotting — the data series behind
/// the extension experiments E1/E2. The matrix itself lives in
/// [`crate::sweep_matrix`]; this entry only reads flags.
///
/// Usage: `ebda repro sweep [--quick] [flags] [out.csv]` (defaults to
/// stdout). Columns:
/// `design,traffic,rate,policy,avg_latency,p50_latency,p99_latency,p999_latency,throughput,balance_cv,outcome`
///
/// Quantiles come from the engine's log-bucketed latency histograms
/// (≤6.25% relative error); the raw per-packet latency vector and its
/// per-point sort are skipped entirely.
///
/// Points run in parallel (`--threads N`, else `EBDA_THREADS`, default
/// hardware parallelism) and the CSV is byte-identical at every thread
/// count — rows merge in matrix order, not completion order.
///
/// `--quick` shrinks the matrix to a smoke-test size. Of the shared
/// observability flags (docs/OBSERVABILITY.md §3), `--trace-out` is a
/// synonym of `--profile-out` here and `--journey-out` merges the
/// per-packet journeys of every point into one timeline, one Chrome-trace
/// "process" per point.
pub(super) fn sweep(mut args: Args) -> Result<(), CliError> {
    let mut obs = ObsOptions::parse(&mut args)?;
    let quick = args.switch("--quick");
    let out = match args.positionals()?.as_slice() {
        [] => None,
        [path] => Some(std::path::PathBuf::from(path)),
        more => {
            return Err(CliError::Usage(format!(
                "expected one CSV path, got {more:?}"
            )))
        }
    };
    obs.activate_aggregate()?;

    let result = run_sweep(quick, obs.threads, obs.journey_config());

    match &out {
        Some(path) => write_file("csv", path, &result.csv)?,
        None => std::io::stdout()
            .lock()
            .write_all(result.csv.as_bytes())
            .map_err(|e| CliError::Failed(format!("write csv: {e}")))?,
    }
    if let Some(path) = &obs.trace {
        write_profile(path)?;
    }
    if let (Some(mut builder), Some(path)) = (result.journeys, &obs.journey) {
        // With the profiler on, the worker busy timeline renders next to
        // the per-point packet journeys in the same Perfetto tab.
        if ebda_obs::prof::enabled() {
            builder.add_worker_timeline("workers", &ebda_obs::prof::snapshot().workers);
        }
        write_file("journey", path, builder.finish())?;
        eprintln!(
            "journeys: merged sweep timeline written to {}",
            path.display()
        );
    }
    obs.finish()
}
