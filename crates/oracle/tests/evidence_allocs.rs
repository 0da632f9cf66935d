//! A clock-free ceiling on the churn of the evidence path.
//!
//! Twenty artifacts of the seed-7 stream are walked through everything
//! a campaign and `check-cert` do with evidence — build the provenance,
//! serialize it, wrap it in a ledger line, read the line and the
//! document back, check it, extract the artifact's coverage, merge it
//! into a campaign map, take the digests — and the allocations of the
//! walk are counted by this thread's allocator.
//!
//! * parent of the pull reader and the buffer writers (tree parser,
//!   `format!` per hop, `Vec` per probe in `check`, a `String` per
//!   coverage hit): **77 503** allocations for this walk ([`PARENT`]);
//! * with them, provenance and coverage each building the artifact's
//!   CDG again: 7 321;
//! * with both read off the `Evaluation`'s graph: 6 541;
//! * with evidence format 2 — the provenance an object in the ledger
//!   line, copied out rather than unescaped, hops as tuples: **6 359**
//!   ([`MEASURED`]; 6 546 for the format-1 build on the same host).
//!
//! The ceiling is 1.25× the measured figure, and the test also holds it
//! under a third of the parent's. What is left is mostly the prover
//! side (`certify`, the topological order, the class-edge labels) and
//! the owned strings of a `LedgerRecord`.

#[path = "../../cdg/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocs_during;
use ebda_obs::{CoverageMap, LedgerRecord};
use ebda_oracle::{artifact_coverage, evaluate, Evaluation, Generator, Mutation, Provenance};

/// The walk's allocations at the parent commit (same test, same host).
const PARENT: u64 = 77_503;
/// The walk's allocations when the ceiling was set.
const MEASURED: u64 = 6_359;

#[test]
fn the_evidence_walk_stays_under_its_allocation_ceiling() {
    assert!(!ebda_obs::prof::enabled() && !ebda_obs::metrics::enabled());
    let mut generator = Generator::with_max_nodes(7, 36);
    let artifacts: Vec<_> = (0..20).map(|_| generator.next_artifact()).collect();
    let evaluated: Vec<_> = artifacts
        .iter()
        .map(|artifact| (artifact, Evaluation::of(artifact, Mutation::None)))
        .collect();
    let mut campaign = CoverageMap::new("oracle-seed-7-mutation-none");
    let mut obligations = 0;
    let n = allocs_during(|| {
        for (artifact, evaluation) in &evaluated {
            let provenance = evaluation.provenance();
            let json = provenance.to_json();
            let coverage = evaluation.coverage();
            let record = provenance.ledger_record(
                "oracle",
                artifact.summary(),
                "abc1234".to_string(),
                7,
                Some(&coverage),
            );
            let line = record.to_line();
            let read = LedgerRecord::from_line(&line).expect("own line");
            let back = Provenance::from_json(&read.provenance).expect("own document");
            assert_eq!((back.hash_hex(), &read.provenance), (read.hash, &json));
            obligations += back.check().expect("own evidence").obligations;
            campaign.merge(&coverage);
            assert_eq!(coverage.digest(), read.coverage);
        }
        assert_eq!(campaign.digest().len(), 16);
    });
    assert!(obligations > 1000, "{obligations} obligations walked");
    println!("{n} allocations");
    assert!(
        n <= MEASURED + MEASURED / 4,
        "{n} allocations, measured {MEASURED} when the ceiling was set"
    );
    assert!(
        n * 3 <= PARENT,
        "{n} allocations against the parent's {PARENT}"
    );
}

#[test]
fn merging_points_a_map_already_holds_allocates_nothing() {
    let mut generator = Generator::with_max_nodes(7, 36);
    let maps: Vec<CoverageMap> = (0..20)
        .map(|_| {
            let artifact = generator.next_artifact();
            artifact_coverage(&artifact, &evaluate(&artifact, Mutation::None))
        })
        .collect();
    let mut campaign = CoverageMap::new("k");
    for map in &maps {
        campaign.merge(map);
    }
    let points = campaign.total_points();
    let n = allocs_during(|| {
        for map in &maps {
            campaign.merge(map);
        }
    });
    assert_eq!(n, 0, "merging known points allocated {n} times");
    assert_eq!(campaign.total_points(), points);
    assert_eq!(
        campaign.family_hits("design_bin"),
        2 * maps.len() as u64,
        "the hits were added all the same"
    );
}
