//! A kill matrix for `check-cert`: for every obligation
//! [`Provenance::check`] discharges (and the hash guard in
//! [`Provenance::from_json`]), one record from the seed corpus tampered
//! so that exactly that obligation rejects it. A check that silently
//! stops checking turns one of these rows green-to-red.
//!
//! Every row starts from a record that passes, applies one edit, and
//! names the error the edit must produce. `check` returns the first
//! failed obligation, so the edits are chosen to leave everything walked
//! before the target intact; the rows together cover the obligation list
//! in the order `check` walks it.

use ebda_core::{Channel, Dimension, Turn};
use ebda_oracle::provenance::{EbdaEvidence, Hop};
use ebda_oracle::{evaluate, Mutation, Provenance};

/// The provenance of every seed-corpus entry, in hash order.
fn seed_records() -> Vec<(String, Provenance)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/seed");
    let entries = ebda_corpus::store::load_dir(&dir).expect("corpus/seed loads");
    assert_eq!(entries.len(), 50, "the seed corpus has 50 entries");
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let artifact = e.to_artifact(i as u64);
            let verdicts = evaluate(&artifact, Mutation::None);
            (
                e.name.clone(),
                Provenance::from_artifact(&artifact, &verdicts),
            )
        })
        .collect()
}

fn named<'a>(records: &'a [(String, Provenance)], name: &str) -> &'a Provenance {
    let (_, prov) = records
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("corpus/seed has no entry {name}"));
    prov.check()
        .unwrap_or_else(|e| panic!("{name} must pass untampered: {e}"));
    prov
}

fn partitions(prov: &mut Provenance) -> &mut Vec<Vec<Channel>> {
    match &mut prov.ebda {
        EbdaEvidence::Certificate { partitions } => partitions,
        EbdaEvidence::Refusal { .. } => panic!("record carries no certificate"),
    }
}

fn witness(prov: &mut Provenance) -> &mut Vec<Hop> {
    prov.brute.witness.as_mut().expect("negative record")
}

fn ordering(prov: &mut Provenance) -> &mut Vec<Hop> {
    prov.ordering.as_mut().expect("positive record")
}

/// The universe classes a hop belongs to, by the record's own data.
fn classes_of(prov: &Provenance, hop: Hop) -> Vec<Channel> {
    let mut coords = vec![0i64; prov.radix.len()];
    let mut rest = hop.from;
    for d in (0..prov.radix.len()).rev() {
        coords[d] = (rest % prov.radix[d]) as i64;
        rest /= prov.radix[d];
    }
    prov.universe
        .iter()
        .copied()
        .filter(|c| {
            c.dim.index() == hop.dim as usize
                && c.dir == hop.dir
                && c.vc == hop.vc
                && c.class.contains(&coords)
        })
        .collect()
}

type Tamper = fn(&mut Provenance);

/// `(obligation, seed entry, edit, error the edit must produce)`.
const ROWS: &[(&str, &str, Tamper, &str)] = &[
    (
        "shape consistency",
        "mesh-xy-00",
        |p| {
            p.wrap.pop();
        },
        "inconsistent shape",
    ),
    (
        "shape: node count overflows",
        "cyclic-turns-00",
        |p| p.radix = vec![usize::MAX, 2],
        "inconsistent shape: radix [18446744073709551615, 2] overflows the node count",
    ),
    (
        "verdict against brute summary",
        "mesh-xy-00",
        |p| p.brute.surviving = 1,
        "verdict disagrees with the brute summary",
    ),
    (
        "verdict against brute summary (flipped verdict)",
        "cyclic-turns-00",
        |p| p.deadlock_free = true,
        "verdict disagrees with the brute summary",
    ),
    (
        "ordering length",
        "mesh-xy-00",
        |p| {
            ordering(p).pop();
        },
        "ordering covers 47 channels, topology has 48",
    ),
    (
        // Refused by arithmetic on the declared shape: tabulating it
        // would ask the allocator for 64 TiB.
        "ordering length (declared shape too large to tabulate)",
        "mesh-xy-00",
        |p| p.radix = vec![1 << 20, 1 << 20],
        "ordering covers 48 channels, topology has 4398042316800",
    ),
    (
        "ordering length (channel count overflows)",
        "mesh-xy-00",
        |p| p.radix = vec![1 << 31, 1 << 32],
        "overflows the channel count",
    ),
    (
        "ordering duplicate",
        "mesh-xy-00",
        |p| {
            let o = ordering(p);
            o[1] = o[0];
        },
        "twice",
    ),
    (
        "ordering missing channel",
        "mesh-xy-00",
        |p| ordering(p)[5].vc = 9,
        "ordering misses concrete channel",
    ),
    (
        "ordering missing channel (wrong far end)",
        "torus-dateline-00",
        |p| {
            let h = &mut ordering(p)[0];
            h.to = (h.to + 1) % 16;
        },
        "ordering misses concrete channel",
    ),
    (
        "descending dependency",
        "mesh-xy-00",
        |p| ordering(p).reverse(),
        "descends in the channel ordering",
    ),
    (
        "descending dependency on a wrap link",
        "torus-dateline-04",
        |p| ordering(p).reverse(),
        "descends in the channel ordering",
    ),
    (
        "hop dimension",
        "cyclic-turns-00",
        |p| witness(p)[0].dim = 2,
        "names dimension 2 of 2",
    ),
    (
        "hop VC (zero)",
        "cyclic-turns-00",
        |p| witness(p)[0].vc = 0,
        "uses vc 0 of a 1-vc dimension",
    ),
    (
        "hop VC (beyond the budget)",
        "cyclic-turns-00",
        |p| witness(p)[0].vc = 2,
        "uses vc 2 of a 1-vc dimension",
    ),
    (
        "hop not a link",
        "cyclic-turns-00",
        |p| {
            let h = &mut witness(p)[0];
            h.to = h.from;
        },
        "is not a link of the topology",
    ),
    (
        "hop without a class",
        "cyclic-turns-00",
        |p| {
            let hop = witness(p)[0];
            let gone = classes_of(p, hop);
            assert!(!gone.is_empty());
            p.universe.retain(|c| !gone.contains(c));
        },
        "matches no channel class of the universe",
    ),
    (
        "disallowed witness step (turn not in the relation)",
        "cyclic-turns-00",
        |p| {
            let w = witness(p).clone();
            let step = (0..w.len())
                .map(|i| (w[i], w[(i + 1) % w.len()]))
                .find(|&(a, b)| classes_of(p, a) != classes_of(p, b))
                .expect("a cyclic-turns witness takes a turn");
            for &ca in &classes_of(p, step.0) {
                for &cb in &classes_of(p, step.1) {
                    p.turns.remove(Turn { from: ca, to: cb });
                }
            }
        },
        "is not an admissible hold/want pair",
    ),
    (
        "disallowed witness step (hops not adjacent)",
        "removed-dateline-00",
        |p| witness(p).swap(0, 2),
        "is not an admissible hold/want pair",
    ),
    (
        "cycle too short to close",
        "removed-dateline-00",
        |p| witness(p).truncate(1),
        "witness cycle of length 1 cannot close",
    ),
    (
        "positive record with no checkable method",
        "torus-dateline-00",
        |p| p.ordering = None,
        "carries no independently checkable evidence",
    ),
    (
        "certificate: invalid partition",
        "mesh-xy-00",
        |p| {
            let x = partitions(p)[0][0];
            partitions(p)[0].push(x.at_coord(Dimension::X, 0));
        },
        "overlap inside one partition",
    ),
    (
        "certificate: channel in two partitions",
        "mesh-xy-00",
        |p| {
            let x = partitions(p)[0][0];
            partitions(p)[1].push(x);
        },
        "appears in more than one partition",
    ),
    (
        "certificate: universe channel not covered",
        "mesh-xy-00",
        |p| {
            partitions(p)[0].pop();
        },
        "universe channel",
    ),
    (
        "certificate: turn endpoint not covered",
        "mesh-xy-00",
        |p| {
            let gone = partitions(p)[0].pop().expect("two channels");
            p.universe.retain(|&c| c != gone);
        },
        "turn endpoint",
    ),
    (
        "certificate: partitions overlap",
        "mesh-xy-00",
        |p| {
            let x = partitions(p)[0][0];
            partitions(p)[1].push(x.at_coord(Dimension::X, 0));
        },
        "partitions 1 and 2 overlap",
    ),
    (
        "certificate: Theorem 1",
        "mesh-xy-00",
        |p| {
            let merged: Vec<Channel> = partitions(p).concat();
            *partitions(p) = vec![merged];
        },
        "Theorem 1 allows at most one",
    ),
    (
        "certificate: Theorem 2",
        "turn-model-01",
        |p| partitions(p)[0].reverse(),
        "moves against the Theorem 2 numbering",
    ),
    (
        "certificate: Theorem 3",
        "mesh-xy-00",
        |p| partitions(p).reverse(),
        "violating Theorem 3",
    ),
];

#[test]
fn every_obligation_rejects_its_tampered_record() {
    let records = seed_records();
    for &(obligation, entry, tamper, needle) in ROWS {
        let mut prov = named(&records, entry).clone();
        tamper(&mut prov);
        match prov.check() {
            Ok(report) => panic!("{obligation}: tampered {entry} still passes: {report:?}"),
            Err(e) => assert!(
                e.contains(needle),
                "{obligation}: {entry} must fail with {needle:?}, got: {e}"
            ),
        }
    }
}

#[test]
fn the_declared_hash_guards_the_document() {
    let records = seed_records();
    for (name, prov) in &records {
        let json = prov.to_json();
        let hash = prov.hash_hex();
        assert!(Provenance::from_json(&json).is_ok(), "{name}");
        let forged = json.replacen(&hash, "0123456789abcdef", 1);
        let err = Provenance::from_json(&forged).unwrap_err();
        assert!(err.contains("declared hash"), "{name}: {err}");
        // Editing the content under an honest hash trips it as well.
        let edited = json.replacen("\"radix\":[", "\"radix\":[1,", 1);
        let err = Provenance::from_json(&edited).unwrap_err();
        assert!(err.contains("declared hash"), "{name}: {err}");
    }
}

#[test]
fn every_seed_record_passes_untampered_with_pinned_totals() {
    // The other half of a kill matrix: the rows above start from records
    // that pass, and the obligation count over the corpus is pinned so
    // an obligation that stops being walked shows up as a smaller total.
    let records = seed_records();
    let mut obligations = 0;
    let mut methods = std::collections::BTreeMap::new();
    for (name, prov) in &records {
        let report = prov.check().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.deadlock_free, prov.deadlock_free, "{name}");
        obligations += report.obligations;
        for m in report.methods {
            *methods.entry(m).or_insert(0) += 1;
        }
    }
    assert_eq!(obligations, PINNED_OBLIGATIONS);
    assert_eq!(
        methods.into_iter().collect::<Vec<_>>(),
        vec![
            ("channel-ordering", 25),
            ("ebda-certificate", 20),
            ("witness-cycle", 25)
        ]
    );
}

/// Obligations `check` walks over the 50 seed entries.
const PINNED_OBLIGATIONS: usize = 12_187;
