//! Driver behind `ebda oracle`: flag parsing, campaign execution and
//! result reporting.
//!
//! Usage: `ebda oracle [flags]`; the flags are tabulated in
//! docs/VERIFICATION.md §5 and by `ebda help`.
//!
//! The command succeeds when the outcome matches the expectation — clean
//! by default, caught-disagreement under `--expect-disagreement` — and
//! fails (exit 1) otherwise, so both the CI guard and its self-check are
//! one invocation. A malformed command line is exit 2.

use crate::args::{Args, CliError};
use crate::trace::{write_file, write_profile, ObsOptions};
use ebda_oracle::differential::{run_campaign, CampaignConfig};
use ebda_oracle::verdict::Mutation;
use std::time::Duration;

/// Parses `args`, runs the campaign and prints the report.
///
/// # Errors
///
/// Usage errors from the flags; a failure when the outcome does not match
/// the expectation or a requested file cannot be written.
pub fn run(mut args: Args) -> Result<(), CliError> {
    let mut obs = ObsOptions::parse_with_evidence(&mut args)?;
    let mutation: Mutation = args.value("--mutate")?.unwrap_or(Mutation::None);
    let cfg = CampaignConfig {
        seed: args.value("--seed")?.unwrap_or(7),
        budget: Duration::from_secs(args.value("--budget")?.unwrap_or(10)),
        min_configs: args.value("--min-configs")?.unwrap_or(500),
        max_configs: args.value("--max-configs")?.unwrap_or(usize::MAX),
        max_nodes: args
            .value_with("--max-nodes", |raw| {
                // The smallest generated topology is a 2x2 mesh.
                raw.parse()
                    .ok()
                    .filter(|&n: &usize| n >= 4)
                    .ok_or_else(|| "needs an integer of at least 4".to_string())
            })?
            .unwrap_or(36),
        mutation,
        journey_sample_rate: obs.journey_sample_rate,
        threads: obs.threads,
        ledger: obs.ledger.clone(),
        coverage: obs.coverage.clone(),
        coverage_guided: args.switch("--coverage-guided"),
    };
    let expect_disagreement = args.switch("--expect-disagreement");
    args.finish()?;
    // A clean campaign has no replay to trace and writes the profile.
    obs.activate_aggregate()?;

    if mutation != Mutation::None {
        println!("running with mutated checker: {mutation}");
    }
    let report = run_campaign(&cfg);
    println!("{report}");
    if let Some(e) = report.write_errors.first() {
        return Err(CliError::Failed(e.clone()));
    }
    obs.note_evidence(report.configs, report.coverage.as_ref());

    let replay = report.caught.as_ref().and_then(|c| c.replay.as_ref());
    if let Some(path) = &obs.trace {
        match replay {
            Some(replay) => {
                write_file("trace", path, &replay.trace_json)?;
                eprintln!("replay trace written to {}", path.display());
            }
            None => write_profile(path)?,
        }
    }
    if let Some(path) = &obs.journey {
        match replay {
            Some(replay) => {
                write_file("journey", path, &replay.journey_json)?;
                eprintln!("replay journeys written to {}", path.display());
            }
            None => eprintln!(
                "journeys: campaign was clean, nothing replayed, {} not written",
                path.display()
            ),
        }
    }
    obs.finish()?;

    expectation(!report.is_clean(), expect_disagreement, "disagreement")
}

/// The verdict of a self-checking campaign: it succeeds when what it
/// `found` (a `what`: disagreement, mismatch) is what was `expected`.
///
/// # Errors
///
/// A [`CliError::Failed`] when the two differ.
pub(crate) fn expectation(found: bool, expected: bool, what: &str) -> Result<(), CliError> {
    match (found, expected) {
        (false, false) => Ok(()),
        (true, true) => {
            println!("{what} found, as expected");
            Ok(())
        }
        (true, false) => Err(CliError::Failed(format!("{what} found"))),
        (false, true) => Err(CliError::Failed(format!(
            "expected a {what}, but the campaign was clean"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(s: &str) -> Result<(), CliError> {
        run(Args::new(s.split_whitespace().map(String::from).collect()))
    }

    #[test]
    fn clean_run_succeeds() {
        run_line("--budget 0 --min-configs 20 --max-nodes 16").unwrap();
    }

    #[test]
    fn mutation_self_check_succeeds_only_with_expectation() {
        let args = "--budget 0 --min-configs 400 --max-configs 400 --max-nodes 16 \
                    --mutate dally-ignores-wrap";
        run_line(&format!("{args} --expect-disagreement")).unwrap();
        assert!(matches!(run_line(args), Err(CliError::Failed(_))));
    }

    #[test]
    fn coverage_flags_produce_a_canonical_map_file() {
        let path =
            std::env::temp_dir().join(format!("ebda-oracle-cli-cov-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        run_line(&format!(
            "--budget 0 --min-configs 20 --max-configs 20 --max-nodes 16 \
             --coverage-guided --coverage-out {}",
            path.display()
        ))
        .unwrap();
        let map = ebda_obs::CoverageMap::read_file(&path).unwrap();
        assert!(map.total_points() > 0);
        assert!(map.key().starts_with("oracle-seed-7-"), "{}", map.key());
        std::fs::remove_file(&path).ok();
    }
}
