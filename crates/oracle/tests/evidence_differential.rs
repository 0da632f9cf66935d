//! The evidence path against the code it replaced.
//!
//! `provenance_ref/mod.rs` is `Provenance::{to_json, from_json, check}`
//! as they were — `format!` per hop, the owned tree, `step_allowed`
//! allocating per probe — and `crates/obs/tests/json_ref` the parser and
//! the ledger and coverage writers under them. Over the 50 entries of
//! `corpus/seed/`, 200 generated artifacts at each of seeds 7 and 11
//! (meshes, tori, deadlocking records with witnesses) and two records
//! over a 68-class universe:
//!
//! * the writers produce the same bytes — provenance document, ledger
//!   line (with names that need every escape), coverage map;
//! * both readers return the same record from those bytes, and agree on
//!   hostile variations of them (`crates/obs/tests/hostile`, with its
//!   listed exceptions), where the library's never panics;
//! * `check()` returns the same `CheckReport` or the same error string,
//!   on the records as built and on randomly tampered ones.

#[path = "../../obs/tests/hostile/mod.rs"]
mod hostile;
#[path = "../../obs/tests/json_ref/mod.rs"]
mod json_ref;
mod provenance_ref;

use ebda_core::{Channel, Dimension, Direction, Turn, TurnSet};
use ebda_obs::{CoverageMap, LedgerRecord, Rng64};
use ebda_oracle::provenance::{EbdaEvidence, Hop};
use ebda_oracle::{
    artifact_coverage, evaluate, Artifact, ArtifactKind, Evaluation, Generator, Mutation,
    Provenance,
};
use hostile::AWKWARD;

struct Record {
    name: String,
    provenance: Provenance,
    coverage: CoverageMap,
}

fn record(name: String, artifact: &Artifact) -> Record {
    let verdicts = evaluate(artifact, Mutation::None);
    Record {
        name,
        provenance: Provenance::from_artifact(artifact, &verdicts),
        coverage: artifact_coverage(artifact, &verdicts),
    }
}

/// Every (dimension, direction, VC) of a 2D network with 17 VCs per
/// dimension: 68 classes, so class rows span two words. `all_turns`
/// makes it deadlock (any turn between any two classes); without, X
/// classes turn onto Y classes only.
fn wide_universe(all_turns: bool) -> Artifact {
    let mut universe = Vec::new();
    for dim in [Dimension::X, Dimension::Y] {
        for dir in [Direction::Plus, Direction::Minus] {
            universe.extend((1..=17).map(|vc| Channel::with_vc(dim, dir, vc)));
        }
    }
    let mut turns = TurnSet::new();
    for &a in &universe {
        for &b in &universe {
            if a != b && (all_turns || (a.dim == Dimension::X && b.dim == Dimension::Y)) {
                turns.insert(Turn::new(a, b));
            }
        }
    }
    Artifact {
        id: 0,
        kind: ArtifactKind::RandomTurns,
        radix: vec![3, 3],
        wrap: vec![false, all_turns],
        vcs: vec![17, 17],
        universe,
        turns,
        design: None,
    }
}

/// The artifacts every comparison in this file runs over, named.
fn artifacts() -> Vec<(String, Artifact)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/seed");
    let entries = ebda_corpus::store::load_dir(&dir).expect("corpus/seed loads");
    assert_eq!(entries.len(), 50);
    let mut out: Vec<(String, Artifact)> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| (e.name.clone(), e.to_artifact(i as u64)))
        .collect();
    for seed in [7, 11] {
        let mut generator = Generator::with_max_nodes(seed, 36);
        out.extend((0..200).map(|_| {
            let artifact = generator.next_artifact();
            (artifact.summary(), artifact)
        }));
    }
    out.push((AWKWARD.to_string(), wide_universe(false)));
    out.push((format!("wide {AWKWARD}"), wide_universe(true)));
    out
}

fn records() -> Vec<Record> {
    let out: Vec<Record> = artifacts()
        .into_iter()
        .map(|(name, artifact)| record(name, &artifact))
        .collect();
    // The stream really has what the comparison is claimed over.
    let count = |pred: fn(&Provenance) -> bool| out.iter().filter(|r| pred(&r.provenance)).count();
    assert!(count(|p| p.wrap.iter().any(|&w| w) && p.deadlock_free) >= 5);
    assert!(count(|p| !p.wrap.iter().any(|&w| w) && p.deadlock_free) > 100);
    assert!(count(|p| p.brute.witness.is_some()) > 100);
    assert!(count(|p| p.universe.len() > 64) == 2);
    assert!(count(|p| matches!(p.ebda, EbdaEvidence::Refusal { .. })) > 50);
    out
}

#[test]
fn writers_readers_and_check_agree_with_the_code_they_replaced() {
    let mut rng = Rng64::new(19);
    let (mut tampered, mut rejected) = (0, 0);
    for (i, r) in records().iter().enumerate() {
        let (p, name) = (&r.provenance, &r.name);

        // Same bytes: provenance, coverage map, ledger line.
        let json = p.to_json();
        assert_eq!(json, provenance_ref::to_json(p), "{name}");
        assert_eq!(
            r.coverage.to_json(),
            json_ref::coverage_to_json(&r.coverage)
        );
        let mut line = p.ledger_record(
            "oracle",
            format!("{name} {AWKWARD}"),
            "abc1234".to_string(),
            u64::MAX - i as u64,
            Some(&r.coverage),
        );
        line.index = i as u64;
        assert_eq!((&line.hash, &line.provenance), (&p.hash_hex(), &json));
        assert_eq!(line.to_line(), json_ref::ledger_to_line(&line), "{name}");

        // Same record back, from either reader.
        assert_eq!(LedgerRecord::from_line(&line.to_line()).as_ref(), Ok(&line));
        assert_eq!(Provenance::from_json(&json).as_ref(), Ok(p), "{name}");
        assert_eq!(provenance_ref::from_json(&json).as_ref(), Ok(p), "{name}");

        // Same verdict on the evidence, as built and tampered with.
        let report = p.check();
        assert!(report.is_ok(), "{name}: {report:?}");
        assert_eq!(report, provenance_ref::check(p), "{name}");
        for _ in 0..4 {
            let mut forged = p.clone();
            let edit = tamper(&mut forged, &mut rng);
            // A witness hop leaving a node the topology does not have:
            // the old walk decoded its coordinates modulo the radix —
            // tripping a debug assertion in `Topology::coords`, or in a
            // release build passing nodes 8..12 of an 8-node network as
            // real ones. The tables refuse it.
            let nodes: usize = forged.radix.iter().product();
            let stray_node = !forged.deadlock_free
                && (forged.brute.witness.iter().flatten()).any(|hop| hop.from >= nodes);
            let old = std::panic::catch_unwind(|| provenance_ref::check(&forged));
            let new = forged.check();
            tampered += 1;
            rejected += usize::from(new.is_err());
            match old {
                Ok(old) if !stray_node => assert_eq!(new, old, "{name} after {edit}"),
                _ => assert!(new.is_err(), "{name} after {edit}"),
            }
        }
    }
    assert!(
        rejected * 2 > tampered && rejected < tampered,
        "{rejected} of {tampered} tampered records rejected"
    );
}

#[test]
fn the_evaluation_and_the_wrappers_write_the_same_bytes() {
    // `Evaluation::{provenance, coverage}` read the graph the evaluation
    // built; `Provenance::from_artifact` and `artifact_coverage` build
    // their own. Same documents, whichever graph a mutation shows Dally.
    let mutations = [
        Mutation::None,
        Mutation::DallyIgnoresWrap,
        Mutation::EbdaSkipsTheorem1,
        Mutation::BruteStopsAfterFirstRound,
    ];
    let mut diverted = 0;
    for (name, artifact) in artifacts() {
        for mutation in mutations {
            let evaluation = Evaluation::of(&artifact, mutation);
            let verdicts = evaluate(&artifact, mutation);
            assert_eq!(
                format!("{verdicts:?}"),
                format!("{:?}", evaluation.verdicts),
                "{name} under {mutation}"
            );
            assert_eq!(
                evaluation.provenance().to_json(),
                Provenance::from_artifact(&artifact, &verdicts).to_json(),
                "{name} under {mutation}"
            );
            assert_eq!(
                evaluation.coverage().to_json(),
                artifact_coverage(&artifact, &verdicts).to_json(),
                "{name} under {mutation}"
            );
            diverted += usize::from(
                mutation == Mutation::DallyIgnoresWrap
                    && verdicts.dally.is_deadlock_free() != verdicts.duato.escape_acyclic,
            );
        }
    }
    assert!(diverted > 10, "{diverted} artifacts whose Dally was misled");
}

/// One random edit of a record's evidence; returns what it did.
fn tamper(p: &mut Provenance, rng: &mut Rng64) -> String {
    let (nodes, dims) = (p.radix.iter().product::<usize>(), p.radix.len());
    let edit_hop = |h: &mut Hop, rng: &mut Rng64| match rng.gen_index(5) {
        0 => h.from = rng.gen_index(nodes + 1),
        1 => h.to = rng.gen_index(nodes + 1),
        2 => h.dim = rng.gen_index(dims + 1) as u8,
        3 => h.vc = rng.gen_index(4) as u8,
        _ => h.dir = h.dir.opposite(),
    };
    // The hop list the check will walk.
    let walked = if p.deadlock_free {
        p.ordering.as_mut()
    } else {
        p.brute.witness.as_mut()
    };
    match (rng.gen_index(12), walked) {
        (0, Some(hops)) if hops.len() > 1 => {
            let (a, b) = (rng.gen_index(hops.len()), rng.gen_index(hops.len()));
            hops.swap(a, b);
            format!("swapping hops {a} and {b}")
        }
        (1 | 2, Some(hops)) if !hops.is_empty() => {
            let at = rng.gen_index(hops.len());
            edit_hop(&mut hops[at], rng);
            format!("editing hop {at} to {}", hops[at])
        }
        (3, Some(hops)) if !hops.is_empty() => {
            let at = rng.gen_index(hops.len());
            let hop = hops.remove(at);
            if rng.gen_index(2) == 0 {
                let to = rng.gen_index(hops.len() + 1);
                hops.insert(to, hop);
                format!("moving hop {at} to {to}")
            } else {
                format!("dropping hop {at}")
            }
        }
        (4, Some(hops)) if !hops.is_empty() => {
            let at = rng.gen_index(hops.len());
            hops.insert(at, hops[at]);
            format!("repeating hop {at}")
        }
        (5, _) if !p.universe.is_empty() => {
            let at = rng.gen_index(p.universe.len());
            format!("dropping class {}", p.universe.remove(at))
        }
        (6, _) if !p.turns.is_empty() => {
            let turn = p.turns.iter().nth(rng.gen_index(p.turns.len())).unwrap();
            p.turns.remove(turn);
            format!("dropping turn {turn}")
        }
        (7, _) => {
            let at = rng.gen_index(p.wrap.len());
            p.wrap[at] = !p.wrap[at];
            format!("flipping wrap {at}")
        }
        (8, _) => {
            let at = rng.gen_index(p.vcs.len());
            p.vcs[at] = rng.gen_index(3) as u8;
            format!("setting vcs {at} to {}", p.vcs[at])
        }
        (9, _) => {
            let at = rng.gen_index(p.radix.len());
            p.radix[at] = 1 + rng.gen_index(p.radix[at] + 1);
            format!("setting radix {at} to {}", p.radix[at])
        }
        (10, _) => match &mut p.ebda {
            EbdaEvidence::Certificate { partitions } if partitions.len() > 1 => {
                let (a, b) = (
                    rng.gen_index(partitions.len()),
                    rng.gen_index(partitions.len()),
                );
                match (rng.gen_index(2), partitions[a].pop()) {
                    (0, Some(channel)) => {
                        partitions[b].push(channel);
                        format!("moving {channel} from partition {a} to {b}")
                    }
                    (_, popped) => {
                        partitions[a].extend(popped);
                        partitions.swap(a, b);
                        format!("swapping partitions {a} and {b}")
                    }
                }
            }
            _ => {
                p.ordering = None;
                "dropping the ordering".to_string()
            }
        },
        _ => {
            p.deadlock_free = !p.deadlock_free;
            "flipping the verdict".to_string()
        }
    }
}

/// `provenance_ref::from_json`, its `Turn::new` panic on a turn `a>a`
/// read as a refusal.
fn old_from_json(text: &str) -> Result<Provenance, String> {
    std::panic::catch_unwind(|| provenance_ref::from_json(text))
        .unwrap_or_else(|_| Err("panicked".to_string()))
}

#[test]
fn provenance_documents_survive_hostile_input_and_agree_with_the_tree_reader() {
    // Plain, parity and coordinate classes; certificate and refusal;
    // ordering and witness.
    let wanted = [
        "mesh-xy-00",
        "turn-model-03",
        "torus-dateline-02",
        "removed-dateline-01",
        "cyclic-turns-04",
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/seed");
    let entries = ebda_corpus::store::load_dir(&dir).expect("corpus/seed loads");
    let mut valid: Vec<String> = wanted
        .iter()
        .map(|name| {
            let entry = entries
                .iter()
                .find(|e| e.name == *name)
                .expect("seed entry");
            record(entry.name.clone(), &entry.to_artifact(0))
                .provenance
                .to_json()
        })
        .collect();
    // A format-1 document: hops as objects.
    valid.push(include_str!("golden/provenance_xy_mesh3x3_v1.json").to_string());
    hostile::differential(valid, 700, Provenance::from_json, old_from_json, |p| {
        let json = p.to_json();
        let back = Provenance::from_json(&json).expect("own bytes parse");
        assert_eq!((&back, back.to_json()), (p, json));
    });
}

#[test]
fn declared_shapes_too_large_to_tabulate_are_refused_on_a_small_stack() {
    // Well-formed, well-hashed documents whose radix is a lie: what the
    // check would tabulate per declared node (64 TiB for the first) it
    // must never ask for — an allocation that size aborts the process.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/seed");
    let entries = ebda_corpus::store::load_dir(&dir).expect("corpus/seed loads");
    hostile::on_a_small_stack(move || {
        // An ordering to walk, and a witness cycle.
        for name in ["mesh-xy-00", "cyclic-turns-00"] {
            let entry = entries.iter().find(|e| e.name == name).expect("seed entry");
            let valid = record(entry.name.clone(), &entry.to_artifact(0)).provenance;
            assert!(valid.check().is_ok(), "{name}");
            for (radix, vcs) in [
                (vec![1 << 20, 1 << 20], vec![1, 1]),
                (vec![1 << 20, 1 << 20], vec![0, 0]),
                (vec![1 << 31, 1 << 32], vec![1, 255]),
                (vec![usize::MAX, usize::MAX], vec![1, 1]),
            ] {
                let mut forged = valid.clone();
                (forged.radix, forged.vcs) = (radix, vcs);
                let read = Provenance::from_json(&forged.to_json()).expect("well-hashed");
                assert_eq!(read, forged);
                let err = read.check().expect_err("the evidence is for a 4x4 mesh");
                assert!(
                    ["topology has", "overflows", "not a link", "-vc dimension"]
                        .iter()
                        .any(|reason| err.contains(reason)),
                    "{name} as {:?}: {err}",
                    read.radix
                );
            }
        }
    });
}
