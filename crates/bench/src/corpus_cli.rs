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
//! The `run` flags are tabulated in docs/CORPUS.md §3 and by `ebda help`.
//!
//! All campaign and stats output is deterministic: wall-clock timings go
//! to stderr only, so CI can diff stdout across thread counts. The
//! command succeeds when the outcome matched the expectation (clean by
//! default, caught mismatch under `--expect-mismatch`) and fails (exit 1)
//! otherwise; a malformed command line is exit 2.

use std::path::{Path, PathBuf};

use crate::args::{Args, CliError};
use crate::oracle_cli::expectation;
use crate::trace::{write_profile, ObsOptions};
use ebda_corpus::{families, store, CorpusCampaignConfig};
use ebda_oracle::shrink::DEFAULT_SHRINK_BUDGET;
use ebda_oracle::verdict::Mutation;

/// Parses `args` (after `ebda corpus`) and runs the requested action.
///
/// # Errors
///
/// Usage errors from the command line; a failure when the corpus cannot
/// be read or written, or the campaign outcome does not match the
/// expectation.
pub fn run(mut args: Args) -> Result<(), CliError> {
    match args.word().as_deref() {
        Some("generate") => generate(args),
        Some("run") => campaign(args),
        Some("stats") => stats(args),
        other => Err(CliError::Usage(format!(
            "expected a corpus action (generate, run, stats), got {}",
            other.unwrap_or("none")
        ))),
    }
}

/// `ebda corpus generate --out <dir>`: generates all ten families, proves
/// every label at generation time, and writes the content-addressed files.
fn generate(mut args: Args) -> Result<(), CliError> {
    let out: Option<PathBuf> = args.value("--out")?;
    args.finish()?;
    let out = out.ok_or_else(|| CliError::usage("corpus generate needs --out <dir>"))?;
    let entries = families::generate_all();
    for entry in &entries {
        store::save_entry(&out, entry)?;
    }
    print!("{}", store::render_stats(&entries));
    println!("wrote {} entries to {}", entries.len(), out.display());
    Ok(())
}

/// `ebda corpus run <dir> [flags]`: the regression campaign.
fn campaign(mut args: Args) -> Result<(), CliError> {
    let mut obs = ObsOptions::parse_with_evidence(&mut args)?;
    let mutation: Mutation = args.value("--mutate")?.unwrap_or(Mutation::None);
    let cfg = CorpusCampaignConfig {
        threads: obs.threads,
        mutation,
        shrink_budget: args
            .value("--shrink-budget")?
            .unwrap_or(DEFAULT_SHRINK_BUDGET),
        archive_dir: args.value("--archive-to")?,
        ledger: obs.ledger.clone(),
        coverage: obs.coverage.clone(),
    };
    let inject_mismatch = args.switch("--inject-mismatch");
    let expect_mismatch = args.switch("--expect-mismatch");
    let [dir] = args.exactly("one corpus directory")?;
    obs.activate_aggregate()?;

    let mut entries = store::load_dir(Path::new(&dir))?;
    if inject_mismatch {
        let target = entries
            .iter()
            .position(|e| e.expected.is_free() && e.wrap.iter().any(|&w| w))
            .ok_or_else(|| {
                CliError::usage(
                    "--inject-mismatch needs a wrapped deadlock-free entry in the corpus",
                )
            })?;
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

    let report = ebda_corpus::run_corpus_campaign(&entries, &cfg);
    print!("{report}");
    if let Some(e) = report.write_errors.first() {
        return Err(CliError::Failed(e.clone()));
    }
    eprintln!("campaign finished in {} ms", report.elapsed_ms);
    obs.note_evidence(report.entries, report.coverage.as_ref());
    if let Some(path) = &obs.trace {
        write_profile(path)?;
    }
    obs.finish()?;

    expectation(!report.is_clean(), expect_mismatch, "mismatch")
}

/// `ebda corpus stats <dir> [--json]`: deterministic statistics for a
/// corpus, as human-readable text or one canonical JSON document.
fn stats(mut args: Args) -> Result<(), CliError> {
    let json = args.switch("--json");
    let [dir] = args.exactly("one corpus directory")?;
    let entries = store::load_dir(Path::new(&dir))?;
    if json {
        print!("{}", store::render_stats_json(&entries));
    } else {
        print!("{}", store::render_stats(&entries));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(s: &str) -> Result<(), CliError> {
        run(Args::new(s.split_whitespace().map(String::from).collect()))
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
        run_line(&format!("stats {}", dir.display())).unwrap();
        run_line(&format!("run {}", dir.display())).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_mismatch_is_caught_and_archived() {
        let dir = seeded_dir("inject");
        let archive = dir.join("archive");
        run_line(&format!(
            "run {} --inject-mismatch --expect-mismatch --archive-to {}",
            dir.display(),
            archive.display()
        ))
        .unwrap();
        let archived = store::load_dir(&archive).unwrap();
        assert_eq!(archived.len(), 1);
        assert_eq!(archived[0].family, "witness");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_json_mode_and_coverage_out_produce_canonical_files() {
        let dir = seeded_dir("json-cov");
        run_line(&format!("stats {} --json", dir.display())).unwrap();
        let cov = dir.join("coverage.json");
        run_line(&format!(
            "run {} --coverage-out {}",
            dir.display(),
            cov.display()
        ))
        .unwrap();
        let map = ebda_obs::CoverageMap::read_file(&cov).unwrap();
        assert!(map.covered("design_bin") > 0);
        assert!(map.key().starts_with("corpus-"), "{}", map.key());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expect_mismatch_on_a_clean_corpus_fails() {
        let dir = seeded_dir("expect");
        let outcome = run_line(&format!("run {} --expect-mismatch", dir.display()));
        assert!(matches!(outcome, Err(CliError::Failed(_))), "{outcome:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
