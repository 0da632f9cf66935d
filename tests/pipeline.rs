//! End-to-end integration: design → extract → verify → route → simulate,
//! across all four crates, for every design the paper names.

use ebda::core::algorithm1::partition_network;
use ebda::prelude::*;
use ebda::routing::find_delivery_failure;

/// Every catalog design: valid, acyclic CDG, full delivery, and a clean
/// simulation run at moderate load.
#[test]
fn full_pipeline_for_all_2d_catalog_designs() {
    let topo = Topology::mesh(&[5, 5]);
    for (name, seq) in [
        ("P1", catalog::p1_xy()),
        ("P2", catalog::p2_partially_adaptive()),
        ("P3", catalog::p3_west_first()),
        ("P4", catalog::p4_negative_first()),
        ("P5", catalog::p5_west_first_vcs()),
        ("north-last", catalog::north_last()),
        ("fig7a", catalog::fig7a()),
        ("fig7b", catalog::fig7b_dyxy()),
        ("fig7c", catalog::fig7c()),
        ("odd-even", catalog::odd_even()),
        ("hamiltonian", catalog::hamiltonian()),
    ] {
        // 1. Structure.
        seq.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        // 2. Dally.
        let report = verify_design(&topo, &seq).unwrap();
        assert!(report.is_deadlock_free(), "{name}: {report}");
        // 3. Functional delivery.
        let relation = TurnRouting::from_design(name, &seq).unwrap();
        assert_eq!(
            find_delivery_failure(&relation, &topo, 40),
            None,
            "{name} failed delivery"
        );
        // 4. Simulation.
        let cfg = SimConfig {
            injection_rate: 0.05,
            warmup: 200,
            measurement: 600,
            drain: 2_000,
            deadlock_threshold: 800,
            ..SimConfig::default()
        };
        let result = simulate(&topo, &relation, &cfg);
        assert!(result.outcome.is_deadlock_free(), "{name}: {result}");
        assert_eq!(result.routing_faults, 0, "{name} produced routing faults");
        assert_eq!(
            result.measured_delivered, result.measured_injected,
            "{name} failed to drain: {result}"
        );
    }
}

#[test]
fn full_pipeline_for_3d_designs() {
    let topo = Topology::mesh(&[3, 3, 3]);
    for (name, seq) in [("fig9b", catalog::fig9b()), ("fig9c", catalog::fig9c())] {
        let report = verify_design(&topo, &seq).unwrap();
        assert!(report.is_deadlock_free(), "{name}: {report}");
        let relation = TurnRouting::from_design(name, &seq).unwrap();
        assert_eq!(find_delivery_failure(&relation, &topo, 30), None);
        let cfg = SimConfig {
            injection_rate: 0.03,
            warmup: 200,
            measurement: 600,
            drain: 2_000,
            deadlock_threshold: 800,
            ..SimConfig::default()
        };
        let result = simulate(&topo, &relation, &cfg);
        assert!(result.outcome.is_deadlock_free(), "{name}: {result}");
        assert_eq!(result.measured_delivered, result.measured_injected);
    }
}

/// Algorithm 1 outputs, for a sweep of VC budgets, pass the whole pipeline.
#[test]
fn algorithm1_outputs_survive_the_pipeline() {
    let topo = Topology::mesh(&[4, 4]);
    for x in 1..=3u8 {
        for y in 1..=3u8 {
            let seq = partition_network(&[x, y]).unwrap();
            let report = verify_design(&topo, &seq).unwrap();
            assert!(report.is_deadlock_free(), "vcs ({x},{y}): {report}");
            let relation = TurnRouting::from_design("gen", &seq).unwrap();
            assert_eq!(
                find_delivery_failure(&relation, &topo, 24),
                None,
                "vcs ({x},{y}) failed delivery"
            );
        }
    }
}

/// The saturation contrast under transpose traffic: the EbDa fully
/// adaptive 6-channel design sustains at least as much accepted
/// throughput as deterministic XY at high load.
#[test]
fn adaptive_beats_deterministic_on_transpose() {
    let topo = Topology::mesh(&[6, 6]);
    let cfg = SimConfig {
        injection_rate: 0.20,
        traffic: TrafficPattern::Transpose,
        warmup: 300,
        measurement: 1_500,
        drain: 1_500,
        deadlock_threshold: 1_200,
        ..SimConfig::default()
    };
    let xy = TurnRouting::from_design("xy", &catalog::p1_xy()).unwrap();
    let fa = TurnRouting::from_design("dyxy", &catalog::fig7b_dyxy()).unwrap();
    let r_xy = simulate(&topo, &xy, &cfg);
    let r_fa = simulate(&topo, &fa, &cfg);
    assert!(r_xy.outcome.is_deadlock_free());
    assert!(r_fa.outcome.is_deadlock_free());
    assert!(
        r_fa.throughput >= r_xy.throughput * 0.95,
        "adaptive {:.4} vs deterministic {:.4}",
        r_fa.throughput,
        r_xy.throughput
    );
}

/// Four-dimensional designs: the Section 4 construction scales beyond the
/// paper's worked examples, and e-cube/negative-first route hypercubes.
#[test]
fn four_dimensional_and_hypercube_coverage() {
    use ebda::core::min_channels::{merged_partitioning, min_channels};
    use ebda::routing::classic::NegativeFirst;
    use ebda::routing::find_delivery_failure;

    // 4D minimum-channel design on a 3^4 mesh.
    let seq = merged_partitioning(4).unwrap();
    assert_eq!(seq.channel_count() as u64, min_channels(4)); // 40
    let topo = Topology::mesh(&[3, 3, 3, 3]);
    let report = verify_design(&topo, &seq).unwrap();
    assert!(report.is_deadlock_free(), "{report}");
    let relation = TurnRouting::from_design("4d", &seq).unwrap();
    // Spot-check delivery across the 4D mesh (full sweep is slow).
    for (src, dst) in [(0usize, 80usize), (80, 0), (40, 3), (27, 53)] {
        let path = ebda::routing::walk_first_choice(&relation, &topo, src, dst, 32).unwrap();
        assert_eq!(path.len() as u64 - 1, topo.distance(src, dst));
    }

    // Hypercube (the radix-2 mesh): e-cube (dimension order) and
    // negative-first both deliver.
    let cube = Topology::mesh(&[2; 4]);
    let ecube =
        classic::DimensionOrder::new("ecube", (0..4).map(|i| Dimension::new(i as u8)).collect());
    assert_eq!(find_delivery_failure(&ecube, &cube, 8), None);
    assert_eq!(
        find_delivery_failure(&NegativeFirst::new(4), &cube, 8),
        None
    );
    let nf4 = PartitionSeq::parse("X- Y- Z- T1- | X+ Y+ Z+ T1+").unwrap();
    assert!(verify_design(&cube, &nf4).unwrap().is_deadlock_free());
}

/// Torus wraparounds without extra VCs are cyclic — and the simulator's
/// watchdog agrees with the CDG verdict.
#[test]
fn torus_needs_more_than_mesh_designs() {
    let torus = Topology::torus(&[4, 4]);
    let report = verify_design(&torus, &catalog::p1_xy()).unwrap();
    assert!(
        !report.is_deadlock_free(),
        "XY on an unmodified torus must have a cyclic CDG"
    );
    // The same design on a mesh is fine.
    let mesh = Topology::mesh(&[4, 4]);
    assert!(verify_design(&mesh, &catalog::p1_xy())
        .unwrap()
        .is_deadlock_free());
}
