//! Driver behind `ebda corpus`: generate the labeled seed corpus, run the
//! regression campaign, print corpus statistics.
//!
//! Usage: `ebda corpus <generate|run|stats> [flags]`
//!
//! | subcommand | meaning |
//! |---|---|
//! | `generate --out <dir>` | generate every family, prove each label, write the corpus |
//! | `run <dir> [flags]` | check every entry against all four verdict paths |
//! | `stats <dir> [--json]` | print deterministic corpus statistics (`--json`: one canonical JSON document) |
//!
//! `run` flags:
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--archive-to <dir>` | off | archive shrunk witnesses of mismatches as new labeled entries |
//! | `--mutate <name>` | none | break a checker (`dally-ignores-wrap`, `ebda-skips-theorem1`) |
//! | `--inject-mismatch` | off | strip the dateline from the first wrapped deadlock-free entry, keeping its label — the end-to-end catch/shrink/archive demo |
//! | `--expect-mismatch` | off | exit 0 iff a mismatch IS found (self-check mode) |
//! | `--shrink-budget <n>` | 400 | predicate evaluations spent shrinking each mismatch |
//! | `--threads <n>` | hardware | worker threads (`EBDA_THREADS`); report is byte-identical at every value |
//! | `--ledger <path>` | off | append one provenance-carrying run-ledger record per entry (`EBDA_LEDGER`); bytes are identical at every thread count |
//! | `--coverage-out <path>` | off | write the campaign's merged design-space coverage map as canonical JSON; bytes are identical at every thread count |
//!
//! All campaign and stats output is deterministic: wall-clock timings go
//! to stderr only, so CI can diff stdout across thread counts. Exit code
//! 0 means the outcome matched the expectation (clean by default, caught
//! mismatch under `--expect-mismatch`), 1 otherwise, 2 for usage errors.

use std::path::PathBuf;

use crate::trace::{write_profile, ObsOptions};
use ebda_corpus::{families, store, CorpusCampaignConfig};
use ebda_oracle::shrink::DEFAULT_SHRINK_BUDGET;
use ebda_oracle::verdict::Mutation;

/// Removes `--flag value` from `args` and parses the value.
///
/// # Panics
///
/// Panics (with a usage message) when the flag has no or a malformed value.
fn take<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    assert!(i + 1 < args.len(), "{flag} needs a value");
    let raw = args.remove(i + 1);
    args.remove(i);
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => panic!("{flag}: cannot parse {raw:?}"),
    }
}

/// Removes a boolean `--flag` from `args`, returning whether it was there.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Parses `args` (without the program or subcommand name), runs the
/// requested corpus action, and returns the process exit code.
pub fn run(mut args: Vec<String>) -> i32 {
    if args.is_empty() {
        eprintln!("usage: ebda corpus <generate|run|stats> [flags]");
        return 2;
    }
    let action = args.remove(0);
    match action.as_str() {
        "generate" => generate(args),
        "run" => campaign(args),
        "stats" => stats(args),
        other => {
            eprintln!("unknown corpus action {other:?} (try generate, run, stats)");
            2
        }
    }
}

/// `ebda corpus generate --out <dir>`: generates all ten families, proves
/// every label at generation time, and writes the content-addressed files.
fn generate(mut args: Vec<String>) -> i32 {
    let out: PathBuf = match take::<PathBuf>(&mut args, "--out") {
        Some(dir) => dir,
        None => {
            eprintln!("corpus generate needs --out <dir>");
            return 2;
        }
    };
    if !args.is_empty() {
        eprintln!("unknown arguments: {args:?}");
        return 2;
    }
    let entries = families::generate_all();
    for entry in &entries {
        if let Err(e) = store::save_entry(&out, entry) {
            eprintln!("{e}");
            return 1;
        }
    }
    print!("{}", store::render_stats(&entries));
    println!("wrote {} entries to {}", entries.len(), out.display());
    0
}

/// `ebda corpus run <dir> [flags]`: the regression campaign.
fn campaign(mut args: Vec<String>) -> i32 {
    let mut obs = ObsOptions::parse(&mut args);
    obs.activate_aggregate();
    let archive_dir: Option<PathBuf> = take(&mut args, "--archive-to");
    let shrink_budget: usize = take(&mut args, "--shrink-budget").unwrap_or(DEFAULT_SHRINK_BUDGET);
    let mutation = match take::<String>(&mut args, "--mutate") {
        Some(name) => match Mutation::parse(&name) {
            Some(m) => m,
            None => {
                eprintln!(
                    "unknown mutation {name:?} (try dally-ignores-wrap, ebda-skips-theorem1)"
                );
                return 2;
            }
        },
        None => Mutation::None,
    };
    let inject_mismatch = take_switch(&mut args, "--inject-mismatch");
    let expect_mismatch = take_switch(&mut args, "--expect-mismatch");
    let ledger = take::<String>(&mut args, "--ledger")
        .or_else(|| std::env::var("EBDA_LEDGER").ok().filter(|v| !v.is_empty()))
        .map(PathBuf::from);
    let coverage: Option<PathBuf> = take(&mut args, "--coverage-out");
    if let Some(path) = &ledger {
        // Register the ledger with the /ledger route of a live
        // --metrics-addr endpoint.
        ebda_obs::ledger::set_global_path(Some(path.clone()));
    }
    if let Some(path) = &coverage {
        // Same deal for the /coverage route.
        ebda_obs::coverage::set_global_path(Some(path.clone()));
    }
    let dir = match positional(&mut args) {
        Ok(dir) => dir,
        Err(code) => return code,
    };

    let mut entries = match store::load_dir(&dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    if inject_mismatch {
        let Some(target) = entries
            .iter()
            .position(|e| e.expected.is_free() && e.wrap.iter().any(|&w| w))
        else {
            eprintln!("--inject-mismatch needs a wrapped deadlock-free entry in the corpus");
            return 2;
        };
        let stripped = families::strip_dateline(&entries[target]);
        println!(
            "injected mismatch: {} replaced by {} (dateline removed, label kept)",
            entries[target].name, stripped.name
        );
        entries[target] = stripped;
    }
    if mutation != Mutation::None {
        println!("running with mutated checker: {mutation}");
    }

    let cfg = CorpusCampaignConfig {
        threads: obs.threads,
        mutation,
        shrink_budget,
        archive_dir,
        ledger: ledger.clone(),
        coverage: coverage.clone(),
    };
    let report = ebda_corpus::run_corpus_campaign(&entries, &cfg);
    print!("{report}");
    eprintln!("campaign finished in {} ms", report.elapsed_ms);
    if let Some(path) = &ledger {
        eprintln!(
            "ledger: {} verdicts appended to {} ({} threads)",
            report.entries,
            path.display(),
            obs.threads
        );
    }
    if let (Some(path), Some(map)) = (&coverage, &report.coverage) {
        eprintln!(
            "coverage: {} points written to {} (digest {})",
            map.total_points(),
            path.display(),
            map.digest()
        );
    }
    if let Some(path) = &obs.trace {
        write_profile(path);
    }
    obs.finish();

    match (report.is_clean(), expect_mismatch) {
        (true, false) => 0,
        (false, true) => {
            println!("mismatch found, as expected");
            0
        }
        (false, false) => {
            eprintln!("FAIL: corpus labels were violated");
            1
        }
        (true, true) => {
            eprintln!("FAIL: expected a mismatch to be caught, but the campaign was clean");
            1
        }
    }
}

/// `ebda corpus stats <dir> [--json]`: deterministic statistics for a
/// corpus, as human-readable text or one canonical JSON document.
fn stats(mut args: Vec<String>) -> i32 {
    let json = take_switch(&mut args, "--json");
    let dir = match positional(&mut args) {
        Ok(dir) => dir,
        Err(code) => return code,
    };
    match store::load_dir(&dir) {
        Ok(entries) => {
            if json {
                print!("{}", store::render_stats_json(&entries));
            } else {
                print!("{}", store::render_stats(&entries));
            }
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Extracts the single positional corpus-directory argument.
fn positional(args: &mut Vec<String>) -> Result<PathBuf, i32> {
    if args.len() != 1 || args[0].starts_with("--") {
        eprintln!("expected exactly one corpus directory, got: {args:?}");
        return Err(2);
    }
    Ok(PathBuf::from(args.remove(0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn seeded_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ebda-corpus-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let entries = families::generate_family("torus-dateline");
        for e in &entries {
            store::save_entry(&dir, e).unwrap();
        }
        dir
    }

    #[test]
    fn generate_then_stats_then_run_are_clean() {
        let dir = seeded_dir("clean");
        assert_eq!(run(argv(&format!("stats {}", dir.display()))), 0);
        assert_eq!(run(argv(&format!("run {}", dir.display()))), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_mismatch_is_caught_and_archived() {
        let dir = seeded_dir("inject");
        let archive = dir.join("archive");
        let args = format!(
            "run {} --inject-mismatch --expect-mismatch --archive-to {}",
            dir.display(),
            archive.display()
        );
        assert_eq!(run(argv(&args)), 0);
        let archived = store::load_dir(&archive).unwrap();
        assert_eq!(archived.len(), 1);
        assert_eq!(archived[0].family, "witness");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_json_mode_and_coverage_out_produce_canonical_files() {
        let dir = seeded_dir("json-cov");
        assert_eq!(run(argv(&format!("stats {} --json", dir.display()))), 0);
        let cov = dir.join("coverage.json");
        assert_eq!(
            run(argv(&format!(
                "run {} --coverage-out {}",
                dir.display(),
                cov.display()
            ))),
            0
        );
        let map = ebda_obs::CoverageMap::read_file(&cov).unwrap();
        assert!(map.covered("design_bin") > 0);
        assert!(map.key().starts_with("corpus-"), "{}", map.key());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expect_mismatch_on_a_clean_corpus_fails() {
        let dir = seeded_dir("expect");
        assert_eq!(
            run(argv(&format!("run {} --expect-mismatch", dir.display()))),
            1
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_errors_exit_two() {
        assert_eq!(run(vec![]), 2);
        assert_eq!(run(argv("frobnicate")), 2);
        assert_eq!(run(argv("generate")), 2);
        assert_eq!(run(argv("run")), 2);
        assert_eq!(run(argv("run --mutate nonsense x")), 2);
    }
}
