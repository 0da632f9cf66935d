//! Process-level tests of `ebda repro`: every figure prints its
//! paper-matching key lines, the tables match their golden files byte for
//! byte, and the sweep keeps the determinism contract of the parallel
//! layer — same CSV and same work-unit counters at every thread count.
//!
//! Regenerate a golden file after an intentional change with e.g.
//! `cargo run --release -- repro table1 > crates/bench/tests/golden/table1.txt`
//! (`repro sweep --quick` for `sweep_quick.csv`).

use ebda::obs::json::Value;
use ebda::obs::ProfSnapshot;
use std::process::Command;

/// Runs `ebda repro <args>` and returns its stdout. Never inherits a
/// thread count from the test runner's environment.
fn repro(args: &[&str], envs: &[(&str, &str)]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ebda"))
        .arg("repro")
        .args(args)
        .env_remove("EBDA_THREADS")
        .envs(envs.iter().copied())
        .output()
        .expect("spawn ebda");
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[track_caller]
fn assert_same(what: &str, got: &str, want: &str) {
    for (i, (got, want)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "{what} drifted at line {}", i + 1);
    }
    assert_eq!(got, want, "{what} drifted in length");
}

#[test]
fn the_table_lists_nineteen_experiments() {
    let ids: Vec<String> = repro(&["list"], &[])
        .lines()
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    assert_eq!(ids.len(), 19, "{ids:?}");
    for id in ["table1", "fig9", "scalability", "e1e2", "sweep", "explore"] {
        assert!(ids.iter().any(|i| i == id), "{id} missing from {ids:?}");
    }
}

/// Tables 1–5 are pinned whole by their golden files below.
#[test]
fn figures_print_their_paper_matches() {
    let key_lines: &[(&str, &[&str])] = &[
        ("fig3", &["E1S1, W1S1, S1E1, S1W1"]),
        ("fig4", &["U-turns (9)"]),
        ("fig5", &["north-last algorithm [18] — reproduced"]),
        ("fig6", &["no adaptiveness — reproduced"]),
        ("fig7", &["6 = (n+1)*2^(n-1) is the minimum"]),
        ("fig8", &["100 90-degree turns"]),
        ("fig9", &["PC[X2* Z3+ Y1-]; PD[X3* Z3- Y2-]} — reproduced"]),
        (
            "scalability",
            &[
                "deadlock-free        : 12 (paper/Glass & Ni: 12)",
                "unique under symmetry: 3",
                "deadlock-free        : 176",
                "deadlock-free        : 68 (12 unique",
                "12/16 combinations certifiable",
            ],
        ),
    ];
    for (id, needles) in key_lines {
        let text = repro(&[id], &[]);
        for needle in *needles {
            assert!(text.contains(needle), "{id} lacks {needle:?}:\n{text}");
        }
    }
}

/// Any byte of drift in a table's output fails with the first differing
/// line.
#[test]
fn table_outputs_match_their_golden_files() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/tests/golden");
    for id in ["table1", "table2", "table3", "table4", "table5"] {
        let want = std::fs::read_to_string(format!("{golden}/{id}.txt")).expect("golden file");
        assert_same(id, &repro(&[id], &[]), &want);
    }
}

/// Runs `repro sweep --quick --threads N --profile-out <tmp>` and returns
/// the CSV, the parsed profile snapshot and the raw profile text.
fn profiled_sweep(threads: usize) -> (String, ProfSnapshot, String) {
    let path = std::env::temp_dir().join(format!("ebda-prof-det-{threads}.json"));
    let threads = threads.to_string();
    let file = path.to_str().unwrap();
    let csv = repro(
        &[
            "sweep",
            "--quick",
            "--threads",
            &threads,
            "--profile-out",
            file,
        ],
        &[],
    );
    let text = std::fs::read_to_string(&path).expect("profile written");
    std::fs::remove_file(&path).ok();
    let doc = Value::parse(&text).expect("profile is JSON");
    let snap = ProfSnapshot::from_value(doc.get("ebdaProfile").expect("ebdaProfile key"))
        .expect("snapshot parses");
    (csv, snap, text)
}

/// The determinism contract of the parallel layer, end to end: the sweep
/// CSV is byte-identical at every thread count (flag or `EBDA_THREADS`)
/// and pinned by a golden file, so "deterministic but silently different
/// from last release" cannot slip through either; the self-profiler's
/// work-unit counter tree is byte-identical too, and the written
/// `--profile-out` file is a valid Chrome trace with one track per worker.
#[test]
fn sweep_csv_and_work_counters_do_not_depend_on_the_thread_count() {
    let golden = include_str!("../crates/bench/tests/golden/sweep_quick.csv");
    assert_same(
        "sweep_quick.csv",
        &repro(&["sweep", "--quick", "--threads", "2"], &[]),
        golden,
    );
    let via_env = repro(&["sweep", "--quick"], &[("EBDA_THREADS", "3")]);
    let (serial_csv, serial, _) = profiled_sweep(1);
    let (parallel_csv, parallel, text) = profiled_sweep(8);
    assert_eq!(serial_csv, golden, "--threads must not change the CSV");
    assert_eq!(parallel_csv, golden, "--threads must not change the CSV");
    assert_eq!(via_env, golden, "EBDA_THREADS must not change the CSV");

    // The deterministic artifact: same phases, same calls, same work
    // units, byte for byte. Wall-clock times are excluded by design.
    assert!(!serial.counters_text().is_empty(), "counters recorded");
    assert_eq!(
        serial.counters_text(),
        parallel.counters_text(),
        "work-unit counter tree must not depend on --threads"
    );

    // The sweep phases and the engine phases both show up.
    for phase in ["sweep/run", "sim/run", "sim/run/route", "sim/run/eject"] {
        assert!(serial.phases.contains_key(phase), "missing phase {phase}");
    }
    assert_eq!(serial.phases["sweep/run"].work["points"], 8);

    // The 8-thread profile is a loadable Chrome trace whose worker pid
    // carries one named thread track per worker.
    let summary = ebda::obs::chrome::validate(&text).expect("valid Trace Event Format");
    assert!(summary.tracks >= 1, "at least one worker track");
    assert!(text.contains("\"worker 0\""), "worker 0 track named");
    // Every sweep point is one busy segment, whichever worker won it
    // (on a loaded 1-CPU host one worker may legitimately take them all).
    assert_eq!(
        parallel.workers.len(),
        8,
        "one busy segment per quick-sweep point"
    );
}
