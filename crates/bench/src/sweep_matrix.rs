//! The full sweep matrix behind `ebda repro sweep`, as a library — so the
//! command stays a thin flag parser and the determinism contract (same CSV
//! at any `--threads` value) is testable without spawning processes.
//!
//! [`run_sweep`] expands designs × traffic patterns × injection rates ×
//! buffer policies into a flat point list, simulates every point on the
//! [`ebda_par`] pool, and renders rows **in point order** — each row is a
//! pure function of its point, so the CSV is byte-identical at every
//! thread count.

use crate::trace::journey_recorder;
use ebda_obs::{JourneyConfig, Recorder, TraceBuilder};
use ebda_routing::classic::{DimensionOrder, DuatoFullyAdaptive};
use ebda_routing::{RoutingRelation, Topology, TurnRouting};
use noc_sim::{simulate, simulate_traced, BufferPolicy, SimConfig, TrafficPattern};
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

/// One cell of the sweep matrix.
struct Point<'a> {
    design: &'a str,
    relation: &'a dyn RoutingRelation,
    traffic_name: &'a str,
    traffic: TrafficPattern,
    rate: f64,
    policy_name: &'a str,
    policy: BufferPolicy,
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

    let mut points: Vec<Point> = Vec::new();
    for (name, relation) in &designs {
        for (tname, traffic) in traffics {
            for &rate in rates {
                for (pname, policy) in [
                    ("multi", BufferPolicy::MultiPacket),
                    ("single", BufferPolicy::SinglePacket),
                ] {
                    points.push(Point {
                        design: name,
                        relation: relation.as_ref(),
                        traffic_name: tname,
                        traffic: traffic.clone(),
                        rate,
                        policy_name: pname,
                        policy,
                    });
                }
            }
        }
    }

    // Each point simulates independently and renders its own row; the
    // index-order merge below makes the CSV thread-count invariant.
    let rows: Vec<(String, Option<(String, Recorder)>)> =
        ebda_par::parallel_map(threads, &points, |_, p| {
            let cfg = SimConfig {
                injection_rate: p.rate,
                traffic: p.traffic.clone(),
                buffer_policy: p.policy,
                warmup: if quick { 100 } else { 500 },
                measurement: if quick { 400 } else { 2_000 },
                drain: if quick { 600 } else { 2_500 },
                deadlock_threshold: if quick { 400 } else { 1_200 },
                collect_latencies: false,
                ..SimConfig::default()
            };
            let (r, journey) = match &journeys {
                Some(jcfg) => {
                    // One journey-only recorder per point, merged into a
                    // single timeline: each point becomes its own
                    // Chrome-trace process.
                    let mut rec = journey_recorder(jcfg.clone());
                    let r = simulate_traced(&topo, p.relation, &cfg, Some(&mut rec));
                    let label = format!(
                        "{} {} rate {} {}",
                        p.design, p.traffic_name, p.rate, p.policy_name
                    );
                    (r, Some((label, rec)))
                }
                None => (simulate(&topo, p.relation, &cfg), None),
            };
            ebda_obs::prof::work("sweep/run", "points", 1);
            let outcome = if r.outcome.is_deadlock_free() {
                if r.measured_delivered == r.measured_injected {
                    "ok"
                } else {
                    "saturated"
                }
            } else {
                "deadlock"
            };
            let mut row = String::new();
            let _ = writeln!(
                row,
                "{},{},{},{},{:.2},{},{},{},{:.4},{:.3},{outcome}",
                p.design,
                p.traffic_name,
                p.rate,
                p.policy_name,
                r.avg_latency,
                r.latency_hist.quantile(0.50).unwrap_or(0),
                r.latency_hist.quantile(0.99).unwrap_or(0),
                r.latency_hist.quantile(0.999).unwrap_or(0),
                r.throughput,
                r.channel_balance_cv().unwrap_or(f64::NAN),
            );
            (row, journey)
        });

    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');
    let mut timeline = journeys.map(|_| TraceBuilder::new());
    for (row, journey) in rows {
        csv.push_str(&row);
        if let (Some(builder), Some((label, rec))) = (timeline.as_mut(), journey) {
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
