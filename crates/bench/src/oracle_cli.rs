//! Driver behind the `oracle` binary: flag parsing, campaign execution,
//! result reporting and the process exit code.
//!
//! Usage: `cargo run --release --bin oracle -- [flags]`
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--budget <secs>` | 10 | wall-clock generation budget |
//! | `--seed <n>` | 7 | seed of the artifact stream |
//! | `--min-configs <n>` | 500 | keep generating until this many checked |
//! | `--max-configs <n>` | unlimited | hard ceiling on artifacts |
//! | `--max-nodes <n>` | 36 | topology size ceiling |
//! | `--mutate <name>` | none | deliberately break a checker (`dally-ignores-wrap`, `ebda-skips-theorem1`) |
//! | `--expect-disagreement` | off | exit 0 iff a disagreement IS found (mutation self-check) |
//! | `--trace-out <path>` | off | write the replay trace (on disagreement) or the campaign profile (as `--profile-out`) |
//! | `--journey-out <path>` | off | write the caught replay's packet journeys as a Chrome trace (`EBDA_JOURNEY_OUT`) |
//! | `--journey-sample-rate <p>` | 1.0 | fraction of replay packets journey-traced (`EBDA_JOURNEY_SAMPLE_RATE`) |
//! | `--metrics-addr <host:port>` | off | serve live campaign metrics at `/metrics` (`EBDA_METRICS_ADDR`) |
//! | `--metrics-linger <secs>` | 0 | keep the metrics endpoint up that long after the campaign |
//! | `--threads <n>` | hardware | worker threads for artifact checking and shrinking (`EBDA_THREADS`); results are identical at every value |
//! | `--ledger <path>` | off | append one provenance-carrying run-ledger record per verdict (`EBDA_LEDGER`); bytes are identical at every thread count |
//! | `--coverage-out <path>` | off | write the campaign's merged design-space coverage map as canonical JSON; bytes are identical at every thread count |
//! | `--coverage-guided` | off | bias generation toward uncovered design-space bins (seed-deterministic rejection sampling) |
//!
//! The exit code is 0 when the outcome matches the expectation — clean by
//! default, caught-disagreement under `--expect-disagreement` — and 1
//! otherwise, so both the CI guard and its self-check are one invocation.

use crate::trace::{write_profile, ObsOptions};
use ebda_oracle::differential::{run_campaign, CampaignConfig};
use ebda_oracle::verdict::Mutation;
use std::time::Duration;

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

/// Parses `args` (without the program name), runs the campaign, prints the
/// report and returns the process exit code.
pub fn run(mut args: Vec<String>) -> i32 {
    let mut obs = ObsOptions::parse(&mut args);
    // A clean campaign has no replay to trace and writes the profile.
    obs.activate_aggregate();
    let trace = obs.trace.clone();
    let budget: u64 = take(&mut args, "--budget").unwrap_or(10);
    let seed: u64 = take(&mut args, "--seed").unwrap_or(7);
    let min_configs: usize = take(&mut args, "--min-configs").unwrap_or(500);
    let max_configs: usize = take(&mut args, "--max-configs").unwrap_or(usize::MAX);
    let max_nodes: usize = take(&mut args, "--max-nodes").unwrap_or(36);
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
    let expect_disagreement = take_switch(&mut args, "--expect-disagreement");
    let ledger = take::<String>(&mut args, "--ledger")
        .or_else(|| std::env::var("EBDA_LEDGER").ok().filter(|v| !v.is_empty()))
        .map(std::path::PathBuf::from);
    let coverage = take::<String>(&mut args, "--coverage-out").map(std::path::PathBuf::from);
    let coverage_guided = take_switch(&mut args, "--coverage-guided");
    if !args.is_empty() {
        eprintln!("unknown arguments: {args:?}");
        return 2;
    }
    if let Some(path) = &ledger {
        // Register the ledger with the /ledger route of a live
        // --metrics-addr endpoint.
        ebda_obs::ledger::set_global_path(Some(path.clone()));
    }
    if let Some(path) = &coverage {
        // Same deal for the /coverage route.
        ebda_obs::coverage::set_global_path(Some(path.clone()));
    }

    let cfg = CampaignConfig {
        seed,
        budget: Duration::from_secs(budget),
        min_configs,
        max_configs,
        max_nodes,
        mutation,
        journey_sample_rate: obs.journey_sample_rate,
        threads: obs.threads,
        ledger: ledger.clone(),
        coverage: coverage.clone(),
        coverage_guided,
    };
    if mutation != Mutation::None {
        println!("running with mutated checker: {mutation}");
    }
    let report = run_campaign(&cfg);
    println!("{report}");
    if let Some(path) = &ledger {
        eprintln!(
            "ledger: {} verdicts appended to {} ({} threads)",
            report.configs,
            path.display(),
            obs.threads
        );
    }
    if let (Some(path), Some(map)) = (&coverage, &report.coverage) {
        eprintln!(
            "coverage: {} points across {} families written to {} (digest {})",
            map.total_points(),
            ebda_obs::coverage::FAMILIES.len(),
            path.display(),
            map.digest()
        );
    }

    if let Some(path) = &trace {
        match report.caught.as_ref().and_then(|c| c.replay.as_ref()) {
            Some(replay) => {
                std::fs::write(path, &replay.trace_json)
                    .unwrap_or_else(|e| panic!("write trace {}: {e}", path.display()));
                eprintln!("replay trace written to {}", path.display());
            }
            None => write_profile(path),
        }
    }
    if let Some(path) = &obs.journey {
        match report.caught.as_ref().and_then(|c| c.replay.as_ref()) {
            Some(replay) => {
                std::fs::write(path, &replay.journey_json)
                    .unwrap_or_else(|e| panic!("write journey {}: {e}", path.display()));
                eprintln!("replay journeys written to {}", path.display());
            }
            None => eprintln!(
                "journeys: campaign was clean, nothing replayed, {} not written",
                path.display()
            ),
        }
    }
    obs.finish();

    let found = !report.is_clean();
    match (found, expect_disagreement) {
        (false, false) => 0,
        (true, true) => {
            println!("disagreement found, as expected");
            0
        }
        (true, false) => {
            eprintln!("FAIL: verdict paths disagreed");
            1
        }
        (false, true) => {
            eprintln!(
                "FAIL: expected the mutated checker to be caught, but the campaign was clean"
            );
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn clean_run_exits_zero() {
        let code = run(argv("--budget 0 --min-configs 20 --max-nodes 16"));
        assert_eq!(code, 0);
    }

    #[test]
    fn mutation_self_check_exits_zero_only_with_expectation() {
        let args = "--budget 0 --min-configs 400 --max-configs 400 --max-nodes 16 \
                    --mutate dally-ignores-wrap --expect-disagreement";
        assert_eq!(run(argv(args)), 0);
    }

    #[test]
    fn coverage_flags_produce_a_canonical_map_file() {
        let path =
            std::env::temp_dir().join(format!("ebda-oracle-cli-cov-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let code = run(argv(&format!(
            "--budget 0 --min-configs 20 --max-configs 20 --max-nodes 16 \
             --coverage-guided --coverage-out {}",
            path.display()
        )));
        assert_eq!(code, 0);
        let map = ebda_obs::CoverageMap::read_file(&path).unwrap();
        assert!(map.total_points() > 0);
        assert!(map.key().starts_with("oracle-seed-7-"), "{}", map.key());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert_eq!(run(argv("--frobnicate")), 2);
        assert_eq!(run(argv("--mutate nonsense")), 2);
        // The full-rebuild switch is gone, not silently accepted.
        assert_eq!(run(argv("--incremental on")), 2);
    }
}
