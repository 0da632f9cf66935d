//! Golden-file tests pinning the verdict-provenance format.
//!
//! Three contracts at once: the canonical single-line provenance JSON
//! (key order, field spellings, hop encoding), the run-ledger record
//! line built around it, and the `ebda explain` narrative. Any
//! intentional format change must bump
//! [`ebda_oracle::provenance::PROVENANCE_FORMAT`] (or the ledger's
//! `LEDGER_FORMAT`) and regenerate the golden files in the same commit:
//!
//! ```text
//! EBDA_BLESS=1 cargo test -p ebda-oracle --test provenance_golden
//! ```
//!
//! The `*_v1.*` files are the ledger and provenance goldens as format 1
//! wrote them. They are never re-blessed: they pin that this build still
//! reads what older builds wrote.

use ebda_cdg::dally::infer_vcs;
use ebda_core::{catalog, extract_turns, Channel, TurnSet};
use ebda_obs::LedgerRecord;
use ebda_oracle::artifact::{Artifact, ArtifactKind};
use ebda_oracle::verdict::{evaluate, Mutation};
use ebda_oracle::Provenance;

/// XY routing on a 3x3 mesh: deadlock-free, and EbDa-certifiable because
/// nothing wraps — the positive side exercises both the channel-ordering
/// and the EbDa-certificate obligations.
fn positive() -> Provenance {
    let seq = catalog::p1_xy();
    let ex = extract_turns(&seq).expect("XY extracts");
    let universe = seq.channels();
    let artifact = Artifact {
        id: 0,
        kind: ArtifactKind::Partitioning,
        radix: vec![3, 3],
        wrap: vec![false, false],
        vcs: infer_vcs(&universe, 2),
        universe,
        turns: ex.turn_set().clone(),
        design: Some(seq),
    };
    let verdicts = evaluate(&artifact, Mutation::None);
    assert!(verdicts.brute.is_deadlock_free(), "XY on a mesh is free");
    Provenance::from_artifact(&artifact, &verdicts)
}

/// A unidirectional 4-node wrap ring with no dateline: the canonical
/// deadlocking shape, whose witness is the ring itself.
fn negative() -> Provenance {
    let artifact = Artifact {
        id: 1,
        kind: ArtifactKind::RandomTurns,
        radix: vec![4],
        wrap: vec![true],
        vcs: vec![1],
        universe: vec![Channel::parse("X1+").expect("parses")],
        turns: TurnSet::new(),
        design: None,
    };
    let verdicts = evaluate(&artifact, Mutation::None);
    assert!(!verdicts.brute.is_deadlock_free(), "wrap ring deadlocks");
    Provenance::from_artifact(&artifact, &verdicts)
}

/// Compares `got` against the checked-in golden file, or rewrites the
/// file when `EBDA_BLESS` is set.
fn golden(name: &str, got: &str, want: &str) {
    if std::env::var_os("EBDA_BLESS").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    assert_eq!(
        got, want,
        "tests/golden/{name} drifted — if intentional, bump the format \
         version and rerun with EBDA_BLESS=1"
    );
}

#[test]
fn positive_provenance_json_is_pinned() {
    let prov = positive();
    golden(
        "provenance_xy_mesh3x3.json",
        &format!("{}\n", prov.to_json()),
        include_str!("golden/provenance_xy_mesh3x3.json"),
    );
    // The pinned document round-trips and passes the independent checker
    // with both positive methods.
    let back = Provenance::from_json(prov.to_json().as_str()).unwrap();
    let report = back.check().unwrap();
    assert!(report.deadlock_free);
    assert_eq!(report.methods, vec!["channel-ordering", "ebda-certificate"]);
}

#[test]
fn ledger_record_lines_are_pinned() {
    // git_rev is pinned to a placeholder: the golden bytes must not
    // depend on the commit the test runs from.
    let records: Vec<LedgerRecord> = [positive(), negative()]
        .into_iter()
        .enumerate()
        .map(|(i, prov)| LedgerRecord {
            index: i as u64,
            source: "oracle".into(),
            name: format!("golden artifact {i}"),
            git_rev: "0000000".into(),
            seed: 7,
            verdict: prov.verdict_str().into(),
            evidence: if prov.deadlock_free {
                "certificate".into()
            } else {
                "witness".into()
            },
            hash: prov.hash_hex(),
            gfp_sweeps: prov.brute.sweeps as u64,
            wait_pairs: prov.brute.pairs as u64,
            coverage: String::new(),
            provenance: prov.to_json(),
        })
        .collect();
    let got: String = records
        .iter()
        .map(|r| format!("{}\n", r.to_line()))
        .collect();
    golden("ledger.jsonl", &got, include_str!("golden/ledger.jsonl"));
    // Every pinned line parses back and its evidence re-validates
    // independently — exactly what `ebda check-cert` does.
    for line in got.lines() {
        let rec = LedgerRecord::from_line(line).unwrap();
        let prov = Provenance::from_json(&rec.provenance).unwrap();
        assert_eq!(rec.hash, prov.hash_hex());
        assert_eq!(rec.verdict, prov.verdict_str());
        prov.check()
            .unwrap_or_else(|e| panic!("record #{}: {e}", rec.index));
    }
}

#[test]
fn explain_narratives_are_pinned() {
    let got = format!(
        "{}\n---\n{}\n",
        positive().narrative(),
        negative().narrative()
    );
    golden("explain.txt", &got, include_str!("golden/explain.txt"));
}

#[test]
fn format_1_goldens_read_as_the_format_2_ones() {
    // `*_v1.*` are the goldens as format 1 wrote them: the provenance an
    // escaped string in the ledger, every hop an object.
    let summary = |prov: &Provenance| {
        let report = prov.check().unwrap();
        let verdict = prov.verdict_str();
        (prov.hash_hex(), verdict, report.methods, report.obligations)
    };
    let v1 = include_str!("golden/provenance_xy_mesh3x3_v1.json");
    let v2 = include_str!("golden/provenance_xy_mesh3x3.json");
    let (v1, v2) = (
        Provenance::from_json(v1).unwrap(),
        Provenance::from_json(v2).unwrap(),
    );
    assert_eq!(v1, v2);
    assert_eq!(summary(&v1), summary(&v2));

    let v1 = include_str!("golden/ledger_v1.jsonl").lines();
    let v2 = include_str!("golden/ledger.jsonl").lines();
    assert_eq!(v1.clone().count(), 2);
    for (old, new) in v1.zip(v2) {
        let (old, new) = (
            LedgerRecord::from_line(old).unwrap(),
            LedgerRecord::from_line(new).unwrap(),
        );
        let (p1, p2) = (
            Provenance::from_json(&old.provenance).unwrap(),
            Provenance::from_json(&new.provenance).unwrap(),
        );
        assert_eq!(p1, p2);
        assert_eq!(summary(&p1), summary(&p2));
        assert_eq!(
            (&old.hash, &old.verdict),
            (&p1.hash_hex(), &p1.verdict_str().to_string())
        );
        // Rewritten by this build, the old record is the new golden line.
        let rewritten = LedgerRecord {
            provenance: p1.to_json(),
            ..old
        };
        assert_eq!(rewritten, new);
        assert_eq!(rewritten.to_line(), new.to_line());
    }
}
