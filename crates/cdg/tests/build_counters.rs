//! Clock-free pins of the CDG build.
//!
//! `Skeleton::fill` evaluates the dependency rule once per pair of
//! *kinds* and looks the answer up per adjacent channel pair, so what a
//! build costs is its channels, its edges and its kinds. All three are
//! deterministic work units of the `cdg/csr_build` phase, pinned here
//! for the eight plain designs `verify-scale` builds, at radix 16: an
//! interning bug that explodes the table (a kind per channel is what a
//! broken comparison yields) or a drift in the edge count fails this
//! test and not only a benchmark digest.
//!
//! One test function: the profiler is process-global.

use ebda_cdg::{verify_design, Topology};
use ebda_core::{catalog, PartitionSeq};
use ebda_obs::prof;

/// `cdg/csr_build`'s calls and its `nodes`, `edges` and `kinds` while
/// `seq` is verified on `topo`.
fn build_counters(topo: &Topology, seq: &PartitionSeq) -> [u64; 4] {
    prof::reset();
    prof::set_enabled(true);
    let report = verify_design(topo, seq).expect("catalog designs are valid");
    prof::set_enabled(false);
    assert!(report.is_deadlock_free(), "{seq}: {report}");
    let phases = prof::snapshot().phases;
    let build = phases.get("cdg/csr_build").expect("a graph was built");
    let work = |unit: &str| build.work.get(unit).copied().unwrap_or(0);
    assert_eq!(work("nodes"), report.channels as u64);
    assert_eq!(work("edges"), report.dependencies as u64);
    [build.calls, work("nodes"), work("edges"), work("kinds")]
}

#[test]
fn a_build_costs_its_channels_its_edges_and_its_kinds() {
    let check = |topo: &Topology, seq: PartitionSeq, [nodes, edges, kinds]: [u64; 3]| {
        let got = build_counters(topo, &seq);
        assert_eq!(got, [1, nodes, edges, kinds], "{seq}: calls, nodes, ...");
    };
    // Measured, like every golden: channels, edges, kinds. A mesh
    // design has a kind per link kind unless a class is restricted
    // (odd-even splits Y+ and Y- by column parity); the dateline torus
    // has four per direction: before the dateline, on it (VC 1 there
    // matches nothing), the wrap link, past it.
    let mesh = &Topology::mesh(&[16, 16]);
    check(mesh, catalog::p1_xy(), [960, 2276, 4]);
    check(mesh, catalog::p3_west_first(), [960, 2726, 4]);
    check(mesh, catalog::p4_negative_first(), [960, 2726, 4]);
    check(mesh, catalog::north_last(), [960, 2726, 4]);
    check(mesh, catalog::odd_even(), [960, 2726, 6]);
    check(mesh, catalog::fig7b_dyxy(), [1440, 5692, 6]);
    check(mesh, catalog::fig7c(), [1440, 5692, 6]);
    let torus = &Topology::torus(&[16, 16]);
    check(torus, catalog::torus_dateline(&[16, 16]), [2048, 8612, 16]);
}
