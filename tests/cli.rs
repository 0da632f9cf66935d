//! Process-level tests of the `ebda` CLI binary.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

#[path = "../crates/obs/tests/csv_reader/mod.rs"]
mod csv_reader;

fn ebda(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ebda"))
        .args(args)
        .output()
        .expect("spawn ebda binary")
}

#[test]
fn help_prints_usage() {
    let out = ebda(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("usage:"));
    for cmd in ["ebda verify", "ebda repro", "ebda oracle", "ebda corpus"] {
        assert!(text.contains(cmd), "help lacks {cmd}");
    }
    assert!(!text.contains("EBDA_TRACE"), "flags only: {text}");
}

#[test]
fn design_and_verify_roundtrip() {
    let out = ebda(&["design", "--vcs", "1,2"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let design_line = text.lines().next().unwrap().replace(['[', ']'], " ");
    let spec = design_line.replace(" -> ", "|");
    let out = ebda(&["verify", spec.trim(), "--mesh", "5x5"]);
    assert!(
        out.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("deadlock-free"));
}

#[test]
fn verify_fails_on_invalid_design_with_nonzero_exit() {
    let out = ebda(&["verify", "X+ X- Y+ Y-"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("Theorem 1") || err.contains("complete D-pairs"),
        "stderr: {err}"
    );
}

#[test]
fn turns_lists_the_extraction() {
    let out = ebda(&["turns", "X+ X- Y-"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("90-degree"));
    assert!(text.contains("X1+->Y1-"));
}

#[test]
fn simulate_reports_completion() {
    let out = ebda(&[
        "simulate",
        "X- | X+ Y+ Y-",
        "--mesh",
        "4x4",
        "--rate",
        "0.02",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("completed"), "got: {text}");
}

#[test]
fn simulate_trace_out_roundtrips_through_obs_parser() {
    let dir = std::env::temp_dir();
    let json_path = dir.join(format!("ebda-cli-trace-{}.json", std::process::id()));
    let out = ebda(&[
        "simulate",
        "X- | X+ Y+ Y-",
        "--mesh",
        "4x4",
        "--rate",
        "0.02",
        "--trace-out",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json_path).expect("trace file written");
    std::fs::remove_file(&json_path).ok();
    let doc = ebda::obs::json::Value::parse(&text).expect("trace JSON parses");
    let events = doc.get("events").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    assert!(doc.get("totals").unwrap().get("inject").unwrap().as_u64() > Some(0));
    assert!(!doc.get("samples").unwrap().as_arr().unwrap().is_empty());

    // The CSV flavour: an events table our own parser accepts.
    let csv_path = dir.join(format!("ebda-cli-trace-{}.csv", std::process::id()));
    let out = ebda(&[
        "simulate",
        "X- | X+ Y+ Y-",
        "--mesh",
        "4x4",
        "--rate",
        "0.02",
        "--trace-out",
        csv_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&csv_path).expect("CSV trace written");
    std::fs::remove_file(&csv_path).ok();
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    let cols = header.split(',').count();
    for line in lines {
        let fields = csv_reader::parse_line(line).expect("CSV row parses");
        assert_eq!(fields.len(), cols);
    }
}

#[test]
fn certify_both_ways() {
    let ok = ebda(&[
        "certify",
        "--turns",
        "X1+>Y1+,Y1+>X1+,X1+>Y1-,Y1->X1+,X1->Y1+,X1->Y1-",
    ]);
    assert!(ok.status.success());
    assert!(String::from_utf8(ok.stdout).unwrap().contains("CERTIFIED"));

    let bad = ebda(&["certify", "--turns", "X1+>Y1+,Y1+>X1-,X1->Y1-,Y1->X1+"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8(bad.stderr)
        .unwrap()
        .contains("not certifiable"));
}

#[test]
fn unknown_flags_do_not_crash() {
    let out = ebda(&["design"]);
    assert_eq!(out.status.code(), Some(2));
    let out = ebda(&["bogus"]);
    assert_eq!(out.status.code(), Some(2));
}

/// Asserts the exit code and that stderr names `needle` without a panic.
#[track_caller]
fn assert_exit(args: &[&str], code: i32, needle: &str) -> std::process::Output {
    let out = ebda(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
    assert!(err.contains(needle), "{args:?} must name {needle}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    out
}

/// The command-line contract: whatever is mistyped — an unknown flag, a
/// flag without its value, a value that does not parse — is exit 2 with
/// the flag named on stderr, on every subcommand, before any work starts
/// (none of the files and endpoints below exist).
#[test]
fn every_subcommand_rejects_a_malformed_line_with_exit_2() {
    // A valid line, then its value flags as `--flag` or `--flag=unparsable`.
    let rows = [
        ("repro sweep --quick", "--threads=0 --metrics-linger=x"),
        ("repro explore", "--threads=x --journey-sample-rate=1.5"),
        ("repro scalability", "--threads=x --trace-out"),
        ("repro table1", ""),
        (
            "oracle",
            "--budget=x --seed=-1 --mutate=nonsense --max-nodes=1 --ledger",
        ),
        ("corpus generate", "--out"),
        (
            "corpus run corpus/seed",
            "--shrink-budget=x --mutate=nonsense --coverage-out",
        ),
        ("corpus stats corpus/seed", ""),
        (
            "simulate xy",
            "--rate=x --mesh=4xq --torus=0x4 --traffic=rain --policy=x --switching=x \
             --seed=x --watchdog-window=x --threads=x --heatmap-out",
        ),
        ("verify xy", "--mesh=4xq --torus=x --ledger"),
        ("certify", "--turns=nonsense"),
        ("check-cert /nonexistent/l.jsonl", ""),
        ("ledger list /nonexistent/l.jsonl", ""),
        ("ledger show /nonexistent/l.jsonl", ""),
        ("ledger diff /nonexistent/a /nonexistent/b", ""),
        ("coverage report /nonexistent/c.json", ""),
        ("coverage diff /nonexistent/a /nonexistent/b", ""),
        ("coverage merge /nonexistent/out /nonexistent/a", ""),
        ("explain abcd", "--ledger"),
        ("report xy", ""),
        (
            "monitor --addr 127.0.0.1:1",
            "--interval=soon --interval-ms=x --ledger",
        ),
        ("profile /nonexistent/p.json", ""),
        ("design", "--vcs=1,x --arrangement=diagonal"),
        ("options", "--vcs=x"),
        ("turns xy", ""),
    ];
    for (line, flags) in rows {
        let with = |extra: &[&str]| -> Vec<String> {
            let words = line.split_whitespace().chain(extra.iter().copied());
            words.map(String::from).collect()
        };
        let rejected = |line: Vec<String>, flag: &str| {
            assert_exit(
                &line.iter().map(String::as_str).collect::<Vec<_>>(),
                2,
                flag,
            );
        };
        rejected(with(&["--bogus"]), "--bogus");
        for spec in flags.split_whitespace() {
            let (flag, bad) = spec.split_once('=').unwrap_or((spec, ""));
            rejected(with(&[flag]), flag);
            if !bad.is_empty() {
                rejected(with(&[flag, bad]), flag);
            }
        }
    }
    // Arity and names are part of the line too.
    assert_exit(&["repro", "table9"], 2, "table9");
    assert_exit(&["repro", "table1", "stray"], 2, "stray");
    assert_exit(&["repro", "explore", "1,x"], 2, "bad VC count \"x\"");
    assert_exit(&["repro", "explore", "0,0"], 2, "0, 0");
    assert_exit(&["corpus"], 2, "corpus action");
    assert_exit(&["corpus", "frobnicate"], 2, "frobnicate");
    assert_exit(&["corpus", "generate"], 2, "--out");
    assert_exit(&["corpus", "run"], 2, "corpus directory");
    // The full-rebuild switch is gone, not silently accepted.
    assert_exit(&["oracle", "--incremental", "on"], 2, "--incremental");
    assert_exit(&["simulate", "fig9b", "--mesh", "4x4"], 2, "dimensions");
    assert_exit(&["simulate", "xy", "--rate", "5"], 2, "probability");
    assert_exit(&["simulate", "xy", "X- | X+ Y+ Y-"], 2, "one design");
    assert_exit(&["simulate", ""], 2, "no channels");
}

/// A requested file or endpoint that cannot be had is exit 1 — after the
/// work, whose result still reaches stdout.
#[test]
fn unusable_outputs_fail_with_exit_1_after_the_result() {
    let sim = ["simulate", "xy", "--mesh", "4x4", "--rate", "0.02"];
    for (flag, target) in [
        ("--trace-out", "/nonexistent/t.json"),
        ("--trace-out", "/nonexistent/t.csv"),
        ("--profile-out", "/nonexistent/p.json"),
        ("--journey-out", "/nonexistent/j.json"),
        ("--heatmap-out", "/nonexistent/h.csv"),
        ("--metrics-addr", "nope"),
    ] {
        let out = assert_exit(&[&sim[..], &[flag, target]].concat(), 1, target);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("completed"), "{flag}: result first: {text}");
    }
    let oracle = [
        "oracle",
        "--budget",
        "0",
        "--min-configs",
        "4",
        "--max-nodes",
        "12",
    ];
    for (flag, target) in [
        ("--ledger", "/nonexistent/l.jsonl"),
        ("--coverage-out", "/nonexistent/c.json"),
        ("--trace-out", "/nonexistent/p.json"),
        ("--metrics-addr", "nope"),
    ] {
        assert_exit(&[&oracle[..], &[flag, target]].concat(), 1, target);
    }
    assert_exit(
        &["verify", "xy", "--ledger", "/nonexistent/l.jsonl"],
        1,
        "/nonexistent/l.jsonl",
    );
    assert_exit(
        &["repro", "explore", "--profile-out", "/nonexistent/p.json"],
        1,
        "/nonexistent/p.json",
    );
    assert_exit(
        &["corpus", "run", "/nonexistent/corpus"],
        1,
        "/nonexistent/corpus",
    );
    // A failed check is exit 1 as well, not a usage error.
    assert_exit(&["verify", "xy", "--torus", "4x4"], 1, "NOT deadlock-free");
}

/// A file nested a million deep is a failed read, not a dead process:
/// the one JSON reader caps depth, so these exit 1 naming the line where
/// they used to overflow the stack (SIGABRT, 134).
#[test]
fn hostile_nesting_fails_with_exit_1_naming_the_line() {
    let temp = |tag: &str, text: String| {
        let name = format!("ebda-cli-deep-{tag}-{}.jsonl", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text + "\n").unwrap();
        path
    };
    let brackets = temp("brackets", "[".repeat(1_000_000));
    let objects = temp("objects", "{\"k\":".repeat(1_000_000));
    let (file, nested) = (brackets.to_str().unwrap(), objects.to_str().unwrap());
    let capped = "nesting deeper than 128 levels at 1:";
    let failed = "1 record(s) failed";
    // A reader that pulls the fields it expects does not even descend
    // into brackets where an object should be; under a key it skips, it
    // stops at the cap.
    let rows = [
        (&["check-cert", file][..], failed, "FAIL line 1: "),
        (&["check-cert", nested][..], failed, capped),
        (&["coverage", "report", file][..], "object at 1:1", ""),
        (&["coverage", "report", nested][..], capped, ""),
        (&["ledger", "list", file][..], "line 1: expected", ""),
        (
            &["ledger", "list", nested][..],
            "line 1: k: nesting deeper",
            "",
        ),
    ];
    for (args, stderr, stdout) in rows {
        let out = assert_exit(args, 1, stderr);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains(stdout),
            "{args:?} must print {stdout}: {text}"
        );
    }
    for path in [brackets, objects] {
        std::fs::remove_file(path).ok();
    }
}

/// A `verify --ledger` record stamps the revision, passes `check-cert`,
/// is listed and explained, and fails `check-cert` (exit 1) once its
/// verdict is tampered with.
#[test]
fn verify_ledger_stamps_the_revision_git_prints() {
    let root = env!("CARGO_MANIFEST_DIR");
    let temp =
        |tag: &str| std::env::temp_dir().join(format!("ebda-cli-{tag}-{}", std::process::id()));
    let (ledger, tampered) = (temp("ledger"), temp("tampered"));
    let _ = std::fs::remove_file(&ledger);
    let out = Command::new(env!("CARGO_BIN_EXE_ebda"))
        .args(["verify", "X- | X+ Y+ Y-", "--mesh", "3x3", "--ledger"])
        .arg(&ledger)
        .current_dir(root)
        .output()
        .expect("spawn ebda binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = std::fs::read_to_string(&ledger).expect("ledger written");
    // `git_rev` reads `.git` itself; where git is installed the two must
    // agree, checkout or not.
    let git = Command::new("git")
        .args(["rev-parse", "--short=7", "HEAD"])
        .current_dir(root)
        .output();
    match git {
        Ok(git) => {
            let want = if git.status.success() {
                String::from_utf8(git.stdout).unwrap().trim().to_string()
            } else {
                "unknown".to_string()
            };
            assert!(
                line.contains(&format!("\"git_rev\":\"{want}\"")),
                "want {want}: {}",
                &line[..line.len().min(200)]
            );
        }
        Err(_) => eprintln!("git_rev not compared: git is not on PATH"),
    }

    let file = ledger.to_str().unwrap();
    let stdout = |args: &[&str]| String::from_utf8(assert_exit(args, 0, "").stdout).unwrap();
    assert!(stdout(&["check-cert", file]).contains("1 passed, 0 failed"));
    let list = stdout(&["ledger", "list", file]);
    let is_hash = |w: &&str| w.len() == 16 && w.bytes().all(|b| b.is_ascii_hexdigit());
    let hash = list
        .split_whitespace()
        .find(is_hash)
        .expect("a record hash");
    assert!(stdout(&["explain", hash, "--ledger", file]).contains(hash));
    // What format-1 builds wrote still checks.
    for (golden, records) in [("ledger_v1.jsonl", 2), ("provenance_xy_mesh3x3_v1.json", 1)] {
        let path = format!("{root}/crates/oracle/tests/golden/{golden}");
        let passed = format!("{records} passed, 0 failed");
        assert!(stdout(&["check-cert", &path]).contains(&passed), "{golden}");
    }

    // `check-cert` skips the lines the ledger's own readers skip: a VT
    // line is blank, a U+00A0 or U+0085 line is a record it cannot read.
    let rows = [
        ("\u{0B}", 0, "1 passed, 0 failed"),
        ("\u{A0}", 1, "FAIL line 2: "),
        ("\u{85}", 1, "FAIL line 2: "),
    ];
    for (after, code, want) in rows {
        std::fs::write(&tampered, format!("{line}{after}\n")).unwrap();
        let out = assert_exit(&["check-cert", tampered.to_str().unwrap()], code, "");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(want), "{after:?} must print {want}: {text}");
    }

    let forged = line.replacen(
        "\"verdict\":\"deadlock-free\"",
        "\"verdict\":\"deadlocking\"",
        1,
    );
    assert_ne!(forged, line, "the record states its verdict");
    std::fs::write(&tampered, forged).unwrap();
    assert_exit(
        &["check-cert", tampered.to_str().unwrap()],
        1,
        "1 record(s) failed",
    );
    for path in [ledger, tampered] {
        std::fs::remove_file(path).ok();
    }
}

/// The checked-in seed corpus is exactly what `corpus generate` writes,
/// file for file and byte for byte; its campaign prints the same at one
/// and two threads; and a broken Dally checker is caught by it.
#[test]
fn the_seed_corpus_regenerates_and_catches_a_broken_checker() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let seed = root.join("corpus/seed");
    let regen = std::env::temp_dir().join(format!("ebda-cli-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&regen);
    assert_exit(
        &["corpus", "generate", "--out", regen.to_str().unwrap()],
        0,
        "",
    );
    let files = |dir: &Path| -> BTreeMap<String, Vec<u8>> {
        let entries = std::fs::read_dir(dir).expect("corpus directory");
        let entries = entries.map(|e| e.expect("directory entry").path());
        let file = |path: PathBuf| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("corpus file"))
        };
        entries.map(file).collect()
    };
    let (want, got) = (files(&seed), files(&regen));
    std::fs::remove_dir_all(&regen).ok();
    assert!(want.keys().eq(got.keys()), "file names differ");
    for (name, bytes) in &want {
        assert!(got[name] == *bytes, "{name} differs from corpus/seed");
    }

    let seed = seed.to_str().unwrap();
    let run = |threads: &str| assert_exit(&["corpus", "run", seed, "--threads", threads], 0, "");
    assert_eq!(
        run("1").stdout,
        run("2").stdout,
        "output depends on threads"
    );
    let mutated = ["--mutate", "dally-ignores-wrap", "--expect-mismatch"];
    assert_exit(&[&["corpus", "run", seed][..], &mutated].concat(), 0, "");
}

/// A sweep with a live endpoint: `/healthz` answers, `/metrics` carries
/// the core families once points complete, and `ebda monitor` renders a
/// snapshot from it. The port is 0; the bound address comes from the
/// `metrics: serving http://ADDR/metrics` line, the documented way to
/// find it.
#[test]
fn a_sweep_serves_live_metrics_that_monitor_renders() {
    let (profile, csv) = (temp("sweep-profile.json"), temp("sweep.csv"));
    let (mut child, addr, drain) = serving(&[
        "--profile-out".as_ref(),
        profile.as_os_str(),
        csv.as_os_str(),
    ]);

    assert!(ebda::obs::http_get(&addr, "/healthz")
        .unwrap()
        .starts_with("ok"));
    let has = |text: &str, family: &str| text.lines().any(|l| l.starts_with(family));
    let mut exposition = String::new();
    for _ in 0..150 {
        exposition = ebda::obs::http_get(&addr, "/metrics").unwrap_or_default();
        if has(&exposition, "ebda_sweep_points_total") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    for family in [
        "ebda_sim_runs_total",
        "ebda_sim_packet_latency_cycles_bucket",
        "ebda_sim_channel_utilization",
        "ebda_prof_phase_calls_total",
        "ebda_sweep_points_total",
    ] {
        assert!(has(&exposition, family), "missing {family}:\n{exposition}");
    }
    let monitor = assert_exit(&["monitor", "--addr", &addr, "--once"], 0, "");
    let monitor = String::from_utf8(monitor.stdout).unwrap();
    assert!(monitor.lines().any(|l| l.starts_with("sim")), "{monitor}");

    child.kill().ok();
    child.wait().ok();
    drain.join().ok();
    for path in [profile, csv] {
        std::fs::remove_file(path).ok();
    }
}

/// A file name under the temp directory private to this test process.
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ebda-cli-{}-{name}", std::process::id()))
}

/// Spawns `ebda repro sweep --quick` serving metrics on port 0 (and
/// lingering 30 s) with `extra` arguments; returns the child, the bound
/// address read off stderr, and the thread draining the rest of stderr.
fn serving(
    extra: &[&std::ffi::OsStr],
) -> (std::process::Child, String, std::thread::JoinHandle<()>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ebda"))
        .args(["repro", "sweep", "--quick", "--metrics-addr", "127.0.0.1:0"])
        .args(["--metrics-linger", "30"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ebda binary");
    let mut stderr = BufReader::new(child.stderr.take().unwrap()).lines();
    let addr = stderr.by_ref().map_while(Result::ok).find_map(|line| {
        let addr = line.strip_prefix("metrics: serving http://")?;
        addr.strip_suffix("/metrics").map(String::from)
    });
    // Keep reading, so the child never blocks on a full pipe.
    let drain = std::thread::spawn(move || stderr.for_each(drop));
    (
        child,
        addr.expect("the metrics address is announced"),
        drain,
    )
}

/// `--metrics-addr` alone switches on the profiler the counters are read
/// from: no `--profile-out`, and the run and point counters still move.
#[test]
fn metrics_alone_serve_the_run_counters() {
    let csv = temp("metrics-only.csv");
    let (mut child, addr, drain) = serving(&[csv.as_os_str()]);
    let nonzero = |text: &str, family: &str| {
        let samples = ebda::obs::metrics::parse_exposition(text).unwrap_or_default();
        samples.iter().any(|s| s.name == family && s.value > 0.0)
    };
    let mut exposition = String::new();
    for _ in 0..150 {
        exposition = ebda::obs::http_get(&addr, "/metrics").unwrap_or_default();
        if nonzero(&exposition, "ebda_sweep_points_total") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    child.kill().ok();
    child.wait().ok();
    drain.join().ok();
    std::fs::remove_file(csv).ok();
    for family in ["ebda_sim_runs_total", "ebda_sweep_points_total"] {
        assert!(
            nonzero(&exposition, family),
            "{family} not nonzero:\n{exposition}"
        );
    }
}
