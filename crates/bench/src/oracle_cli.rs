//! Driver behind `ebda oracle`: flag parsing, campaign execution and
//! result reporting.
//!
//! Usage: `ebda oracle [flags]`; the flags are tabulated in
//! docs/VERIFICATION.md §5 and by `ebda help`.
//!
//! Stdout is deterministic: the wall-clock time goes to stderr, as the
//! corpus campaign's does, so CI can diff stdout across thread counts.
//! The command succeeds when the outcome matches the expectation — clean
//! by default, caught-disagreement under `--expect-disagreement` — and
//! fails (exit 1) otherwise, so both the CI guard and its self-check are
//! one invocation. A malformed command line is exit 2.

use crate::args::{Args, CliError};
use crate::trace::{Document, ObsOptions, Traces};
use ebda_oracle::differential::{run_campaign, CampaignConfig};
use ebda_oracle::verdict::Mutation;
use std::time::Duration;

/// Parses `args`, runs the campaign in the session `obs` and prints the
/// report; a caught disagreement hands its replay's trace and journeys
/// back in `traces`.
///
/// # Errors
///
/// Usage errors from the flags; a failure when the outcome does not match
/// the expectation or the evidence cannot be written.
pub fn run(mut args: Args, obs: &ObsOptions, traces: &mut Traces) -> Result<(), CliError> {
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

    if mutation != Mutation::None {
        println!("running with mutated checker: {mutation}");
    }
    let report = run_campaign(&cfg);
    println!("{report}");
    eprintln!("campaign finished in {} ms", report.elapsed_ms);
    let found = !report.is_clean();
    if let Some(replay) = report.caught.and_then(|caught| caught.replay) {
        traces.trace = Some(Document::Text(replay.trace_json));
        traces.journeys = Some(Document::Text(replay.journey_json));
    }
    if let Some(e) = report.write_errors.first() {
        return Err(CliError::Failed(e.clone()));
    }
    obs.note_evidence(report.configs, report.coverage.as_ref());
    expectation(found, expect_disagreement, "disagreement")
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
    use crate::trace::Output;

    fn run_line(s: &str) -> Result<(), CliError> {
        let mut args = Args::new(s.split_whitespace().map(String::from).collect());
        let obs = ObsOptions::parse(&mut args, &[Output::Coverage])?;
        run(args, &obs, &mut Traces::default())
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
