//! The full sweep matrix behind `ebda repro sweep`, as a library — so the
//! command stays a thin flag parser and the determinism contract (same CSV
//! at any `--threads` value) is testable without spawning processes.
//!
//! [`run_sweep`] expands designs × traffic patterns × injection rates ×
//! buffer policies into a flat point list, simulates it through
//! [`noc_sim::sweep::run`], and renders one row per point **in point
//! order** — so the CSV is byte-identical at every thread count.

use ebda_obs::{JourneyConfig, TraceBuilder};
use ebda_routing::classic::{DimensionOrder, DuatoFullyAdaptive};
use ebda_routing::{RoutingRelation, Topology, TurnRouting};
use noc_sim::{sweep, BufferPolicy, SimConfig, TrafficPattern};
use std::fmt::Write as _;

/// The CSV header every sweep emits.
pub(crate) const CSV_HEADER: &str =
    "design,traffic,rate,policy,avg_latency,p50_latency,p99_latency,\
     p999_latency,throughput,balance_cv,outcome";

/// The rendered sweep: CSV text plus the merged journey timeline when one
/// was requested.
pub(crate) struct SweepOutput {
    /// Header plus one row per point, in matrix order.
    pub csv: String,
    /// One Chrome-trace run per point, in matrix order, when journey
    /// tracing was requested.
    pub journeys: Option<TraceBuilder>,
}

/// Runs the full (or `--quick`) sweep matrix on `threads` workers and
/// renders the CSV. Pass the journey configuration to also collect a
/// per-point packet-journey timeline.
pub(crate) fn run_sweep(
    quick: bool,
    threads: usize,
    journeys: Option<JourneyConfig>,
) -> SweepOutput {
    let _p = ebda_obs::prof::phase("sweep/run");
    let topo = if quick {
        Topology::mesh(&[4, 4])
    } else {
        Topology::mesh(&[8, 8])
    };
    let mut designs: Vec<(&str, Box<dyn RoutingRelation>)> = vec![
        ("xy", Box::new(DimensionOrder::xy())),
        (
            "ebda-dyxy",
            Box::new(TurnRouting::from_design("fa", &ebda_core::catalog::fig7b_dyxy()).unwrap()),
        ),
    ];
    if !quick {
        designs.push((
            "west-first",
            Box::new(TurnRouting::from_design("wf", &ebda_core::catalog::p3_west_first()).unwrap()),
        ));
        designs.push((
            "odd-even",
            Box::new(TurnRouting::from_design("oe", &ebda_core::catalog::odd_even()).unwrap()),
        ));
        designs.push(("duato", Box::new(DuatoFullyAdaptive::new(2))));
    }
    let traffics: &[(&str, TrafficPattern)] = if quick {
        &[("uniform", TrafficPattern::Uniform)]
    } else {
        &[
            ("uniform", TrafficPattern::Uniform),
            ("transpose", TrafficPattern::Transpose),
            ("bitcomp", TrafficPattern::BitComplement),
        ]
    };
    let rates: &[f64] = if quick {
        &[0.02, 0.05]
    } else {
        &[0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12]
    };

    // One label per point, in point order: design, traffic, rate, policy.
    let mut labels = Vec::new();
    let mut points = Vec::new();
    for (name, relation) in &designs {
        for (tname, traffic) in traffics {
            for &rate in rates {
                for (pname, policy) in [
                    ("multi", BufferPolicy::MultiPacket),
                    ("single", BufferPolicy::SinglePacket),
                ] {
                    labels.push((name, tname, rate, pname));
                    points.push((
                        relation.as_ref(),
                        SimConfig {
                            injection_rate: rate,
                            traffic: traffic.clone(),
                            buffer_policy: policy,
                            warmup: if quick { 100 } else { 500 },
                            measurement: if quick { 400 } else { 2_000 },
                            drain: if quick { 600 } else { 2_500 },
                            deadlock_threshold: if quick { 400 } else { 1_200 },
                            ..SimConfig::default()
                        },
                    ));
                }
            }
        }
    }

    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');
    let mut timeline = journeys.as_ref().map(|_| TraceBuilder::new());
    let swept = sweep::run(&topo, &points, threads, journeys.as_ref());
    for ((design, traffic, rate, policy), p) in labels.into_iter().zip(swept) {
        let outcome = if p.deadlocked {
            "deadlock"
        } else if p.drained {
            "ok"
        } else {
            "saturated"
        };
        let _ = writeln!(
            csv,
            "{design},{traffic},{rate},{policy},{:.2},{},{},{},{:.4},{:.3},{outcome}",
            p.avg_latency,
            p.p50_latency.unwrap_or(0),
            p.p99_latency.unwrap_or(0),
            p.p999_latency.unwrap_or(0),
            p.throughput,
            p.channel_balance_cv.unwrap_or(f64::NAN),
        );
        if let (Some(builder), Some(rec)) = (timeline.as_mut(), p.journeys) {
            // Each point becomes its own Chrome-trace process.
            let label = format!("{design} {traffic} rate {rate} {policy}");
            builder.add_run(&label, rec.journeys().expect("journeys attached"));
        }
    }
    SweepOutput {
        csv,
        journeys: timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journey_timeline_labels_points_in_matrix_order() {
        let out = run_sweep(true, 4, Some(JourneyConfig::default()));
        let json = out.journeys.expect("journeys requested").finish();
        let first = json.find("xy uniform rate 0.02 multi").unwrap();
        let last = json.find("ebda-dyxy uniform rate 0.05 single").unwrap();
        assert!(first < last, "runs must appear in matrix order");
    }
}
