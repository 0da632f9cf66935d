//! How many designs of the existing artifact streams the topology
//! admissibility check (`Topology::admit`) refuses: a class restricted to
//! an axis the topology lacks, to a coordinate outside its radix, or
//! matching no link at all. The oracle, the corpus and the ledger do not
//! run the check yet; these counts pin what it would refuse there.

use ebda::cdg::Topology;
use ebda::corpus::store::load_dir;
use ebda::oracle::artifact::Generator;
use std::path::Path;

/// Thirteen seed-7 artifacts carry a class that exists nowhere: each
/// restricts a channel to a parity of its own axis on a radix-2 mesh
/// dimension, where the one link in that direction leaves from the other
/// parity (`X1+[X%2=1]` on an X radix of 2: `X+` leaves only from x = 0).
#[test]
fn the_seed_7_oracle_stream_has_13_vacuous_artifacts() {
    let mut generator = Generator::with_max_nodes(7, 36);
    let refused: Vec<u64> = (0..2_000)
        .map(|_| generator.next_artifact())
        .filter(|a| a.topology().admit(&a.universe).is_err())
        .map(|a| a.id)
        .collect();
    let pinned = [
        179, 199, 332, 442, 550, 562, 574, 581, 620, 664, 1508, 1844, 1909,
    ];
    assert_eq!(refused, pinned);
}

#[test]
fn the_seed_corpus_has_no_vacuous_entry() {
    let entries = load_dir(&Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/seed")).unwrap();
    assert_eq!(entries.len(), 50);
    let refused: Vec<String> = entries
        .iter()
        .filter_map(|e| {
            let topo = Topology::mesh(&e.radix).with_wrap(&e.wrap);
            topo.admit(&e.universe)
                .err()
                .map(|why| format!("{}: {why}", e.name))
        })
        .collect();
    assert_eq!(refused.len(), 0, "{refused:#?}");
}
