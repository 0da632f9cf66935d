//! The shrunk counterexamples of the self-check runs, pinned through the
//! `ebda` binary: the seed-7 oracle campaign under each mutation and the
//! corpus campaign over `corpus/seed` with an injected mismatch must
//! reduce what they catch to exactly these artifacts, and the corpus run
//! must archive the same witness file, which `corpus stats` lists and
//! `corpus run` re-checks clean. How the shrinker gets there is its own
//! business; where it lands is pinned here. The `dally-ignores-wrap` run
//! also exports the journeys of its replay, which must be a valid trace.
//! A corpus run under each mutation shrinks every entry by the rule it
//! broke, so each witness it archives trips that mutation again.

use std::process::Command;

#[path = "../crates/obs/tests/chrome_check/mod.rs"]
mod chrome_check;

fn ebda(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ebda"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("spawn ebda binary");
    assert!(
        out.status.success(),
        "ebda {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn oracle_mutations_shrink_to_their_pinned_artifacts() {
    let pins = [
        (
            "dally-ignores-wrap",
            "#5 random-turns on 2x2x3t (vcs [1, 1, 1], 1 classes, 0 turns)",
        ),
        (
            "ebda-skips-theorem1",
            "#69 partitioning on 2x2 (vcs [1, 1], 2 classes, 2 turns, design [Y1- Y1+])",
        ),
        (
            "brute-stops-after-first-round",
            "#0 partitioning on 2x2 (vcs [1, 1], 3 classes, 2 turns, design [Y1- X1+] -> [X1-])",
        ),
    ];
    let journeys = std::env::temp_dir().join(format!("ebda-journeys-{}.json", std::process::id()));
    let journeys_arg = journeys.to_str().expect("utf-8 temp dir");
    for (mutation, shrunk) in pins {
        let mut args = vec![
            "oracle",
            "--budget",
            "0",
            "--min-configs",
            "2000",
            "--max-configs",
            "2000",
            "--seed",
            "7",
            "--mutate",
            mutation,
            "--expect-disagreement",
        ];
        if mutation == "dally-ignores-wrap" {
            args.extend(["--journey-out", journeys_arg]);
        }
        let text = ebda(&args);
        assert!(
            text.lines().any(|l| l == format!("  shrunk:   {shrunk}")),
            "{mutation}:\n{text}"
        );
    }
    // The replay of the caught witness exports its packet journeys as
    // Trace Event Format: hop spans, and flow chains linking the hops (a
    // chain has at least a start and a finish).
    let trace = std::fs::read_to_string(&journeys).expect("journeys written");
    std::fs::remove_file(&journeys).ok();
    let summary = chrome_check::validate(&trace).unwrap_or_else(|e| panic!("{e}"));
    assert!(summary.complete >= 1 && summary.flows >= 2, "{summary:?}");
}

#[test]
fn injected_corpus_mismatch_shrinks_to_its_pinned_witness() {
    let archive = std::env::temp_dir().join(format!("ebda-shrunk-witness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&archive);
    let text = ebda(&[
        "corpus",
        "run",
        "corpus/seed",
        "--inject-mismatch",
        "--expect-mismatch",
        "--archive-to",
        archive.to_str().expect("utf-8 temp dir"),
    ]);
    let shrunk = "#2 partitioning on 2x3t (vcs [1, 1], 1 classes, 0 turns, design [Y1-])";
    assert!(
        text.contains(&format!("\n    shrunk witness: {shrunk}\n")),
        "{text}"
    );
    assert!(
        text.contains("\n    archived as: a5b61fdcb9e88069.json\n"),
        "{text}"
    );
    let file = std::fs::read_to_string(archive.join("a5b61fdcb9e88069.json"))
        .expect("the witness is archived under its hash");
    assert!(
        file.contains("\"name\": \"witness-a5b61fdcb9e88069\""),
        "{file}"
    );
    // The archive is a corpus of its own: listed, and re-checked clean.
    let dir = archive.to_str().expect("utf-8 temp dir");
    let stats = ebda(&["corpus", "stats", dir]);
    assert!(
        stats.starts_with("corpus: 1 entries (0 deadlock-free, 1 deadlocking)\n"),
        "{stats}"
    );
    let rerun = ebda(&["corpus", "run", dir]);
    assert!(rerun.contains("\nmismatches: 0\n"), "{rerun}");
    std::fs::remove_dir_all(&archive).unwrap();
}

#[test]
fn corpus_witnesses_trip_the_mutation_that_made_them() {
    // `honest`: the witnesses also pass an honest run. Those of
    // `ebda-skips-theorem1` do not: EbDa judges the design's extraction
    // while brute force judges the turn set, and the shrinker keeps a
    // design whose extraction no longer covers the turns, so an honest
    // run flags them `[ebda-vs-brute]` (docs/VERIFICATION.md §5).
    for (mutation, honest) in [
        ("dally-ignores-wrap", true),
        ("ebda-skips-theorem1", false),
        ("brute-stops-after-first-round", true),
    ] {
        let archive = std::env::temp_dir().join(format!(
            "ebda-corpus-witnesses-{}-{mutation}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&archive);
        let dir = archive.to_str().expect("utf-8 temp dir");
        ebda(&[
            "corpus",
            "run",
            "corpus/seed",
            "--mutate",
            mutation,
            "--expect-mismatch",
            "--archive-to",
            dir,
        ]);
        let witnesses = std::fs::read_dir(&archive)
            .expect("witnesses archived")
            .count();
        assert!(witnesses > 0, "{mutation}: nothing archived");
        let rerun = ebda(&[
            "corpus",
            "run",
            dir,
            "--mutate",
            mutation,
            "--expect-mismatch",
        ]);
        assert!(
            rerun.contains(&format!("\nmismatches: {witnesses}\n")),
            "{mutation}: every one of {witnesses} witnesses must trip it again:\n{rerun}"
        );
        if honest {
            let clean = ebda(&["corpus", "run", dir]);
            assert!(clean.contains("\nmismatches: 0\n"), "{mutation}:\n{clean}");
        }
        std::fs::remove_dir_all(&archive).unwrap();
    }
}
