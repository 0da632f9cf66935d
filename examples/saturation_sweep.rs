//! Latency/load sweep: deterministic vs partially vs fully adaptive EbDa
//! designs on an 8x8 mesh — the classic NoC evaluation. Every
//! design × rate point runs in one `noc_sim::sweep::run` batch (the same
//! entry `ebda repro sweep` uses); `saturation_rate` bisects each
//! design's saturation point.
//!
//! Run with: `cargo run --release --example saturation_sweep`

use ebda::prelude::*;
use ebda::sim::{saturation_rate, sweep};

fn base_cfg() -> SimConfig {
    SimConfig {
        warmup: 500,
        measurement: 2_000,
        drain: 3_000,
        deadlock_threshold: 1_500,
        ..SimConfig::default()
    }
}

fn main() -> Result<(), EbdaError> {
    let topo = Topology::mesh(&[8, 8]);
    let rates = [0.005, 0.01, 0.02, 0.04, 0.06, 0.08];

    let designs: Vec<(&str, TurnRouting)> = vec![
        (
            "XY (deterministic)",
            TurnRouting::from_design("xy", &catalog::p1_xy())?,
        ),
        (
            "west-first (partial)",
            TurnRouting::from_design("wf", &catalog::p3_west_first())?,
        ),
        (
            "odd-even (partial)",
            TurnRouting::from_design("oe", &catalog::odd_even())?,
        ),
        (
            "DyXY 6ch (fully adpt)",
            TurnRouting::from_design("fa", &catalog::fig7b_dyxy())?,
        ),
    ];

    println!("average packet latency (cycles) on an 8x8 mesh, uniform traffic");
    print!("{:<24}", "rate (pkts/node/cycle)");
    for r in rates {
        print!(" {r:>8}");
    }
    println!(" {:>10}", "saturation");

    let mut points: Vec<(&dyn RoutingRelation, SimConfig)> = Vec::new();
    for (_, relation) in &designs {
        for rate in rates {
            let cfg = SimConfig {
                injection_rate: rate,
                ..base_cfg()
            };
            points.push((relation, cfg));
        }
    }
    let swept = sweep::run(&topo, &points, 0, None);

    for ((name, relation), curve) in designs.iter().zip(swept.chunks(rates.len())) {
        print!("{name:<24}");
        for point in curve {
            if point.deadlocked {
                print!(" {:>8}", "DEADLOCK");
            } else if point.drained {
                print!(" {:>8.1}", point.avg_latency);
            } else {
                print!(" {:>8}", "sat");
            }
        }
        let sat = saturation_rate(&topo, relation, &base_cfg(), 0.005, 0.30, 0.01);
        match sat {
            Some(rate) => println!(" {rate:>10.3}"),
            None => println!(" {:>10}", "-"),
        }
    }
    println!(
        "\n'sat' = saturated (not all measured packets drained in time);\n\
         the last column is the bisected saturation estimate."
    );
    Ok(())
}
