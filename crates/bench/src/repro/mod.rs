//! `ebda repro <id>`: every table, figure and study EXPERIMENTS.md
//! reports, as one row of `EXPERIMENTS`. Each body prints the artefact
//! and asserts the paper's claims about it as it goes.

mod figures;
mod simulation;
mod studies;
mod tables;

use crate::args::{Args, CliError};
use crate::trace::{ObsOptions, Traces};
use std::panic::AssertUnwindSafe;

/// What an experiment runs: most regenerate one fixed artefact, a few
/// read flags of their own.
#[derive(Clone, Copy)]
pub(crate) enum Body {
    /// Takes no arguments.
    Fixed(fn()),
    /// Reads its own flags and positionals from the rest of the line,
    /// and may hand traces back to the session.
    Flags(fn(Args, &ObsOptions, &mut Traces) -> Result<(), CliError>),
}
use Body::{Fixed, Flags};

impl Body {
    fn run(self, args: Args, obs: &ObsOptions, traces: &mut Traces) -> Result<(), CliError> {
        match self {
            Fixed(body) => args.finish().map(|()| body()),
            Flags(body) => body(args, obs, traces),
        }
    }
}

/// Every experiment — the id `ebda repro` selects it by, and its body —
/// in EXPERIMENTS.md order, which says what the paper shows there and
/// what we measure.
pub(crate) const EXPERIMENTS: [(&str, Body); 19] = [
    ("table1", Fixed(tables::table1)),
    ("table2", Fixed(tables::table2)),
    ("table3", Fixed(tables::table3)),
    ("table4", Fixed(tables::table4)),
    ("table5", Fixed(tables::table5)),
    ("fig3", Fixed(figures::fig3)),
    ("fig4", Fixed(figures::fig4)),
    ("fig5", Fixed(figures::fig5)),
    ("fig6", Fixed(figures::fig6)),
    ("fig7", Fixed(figures::fig7)),
    ("fig8", Fixed(figures::fig8)),
    ("fig9", Fixed(figures::fig9)),
    ("scalability", Fixed(studies::scalability)),
    ("census", Fixed(studies::census)),
    ("vc_study", Fixed(studies::vc_study)),
    ("ablation", Fixed(studies::ablation)),
    ("e1e2", Fixed(simulation::e1e2)),
    ("sweep", Flags(simulation::sweep)),
    ("explore", Flags(studies::explore)),
];

/// `ebda repro <id> [flags] | list | all`, in the session `obs`.
///
/// # Errors
///
/// A usage error for an unknown id or a malformed rest of the line; a
/// failure when `all` saw an experiment fail or an output cannot be
/// written.
pub fn run(mut args: Args, obs: &ObsOptions, traces: &mut Traces) -> Result<(), CliError> {
    let Some(id) = args.word() else {
        return Err(CliError::usage(
            "missing experiment id (try `ebda repro list`)",
        ));
    };
    match id.as_str() {
        "list" => {
            args.finish()?;
            for (id, _) in &EXPERIMENTS {
                println!("{id}");
            }
            Ok(())
        }
        "all" => {
            args.finish()?;
            all(&EXPERIMENTS, obs)
        }
        id => match EXPERIMENTS.iter().find(|(known, _)| *known == id) {
            Some((_, body)) => body.run(args, obs, traces),
            None => Err(CliError::Usage(format!(
                "unknown experiment {id:?} (try `ebda repro list`)"
            ))),
        },
    }
}

/// Runs every experiment with no arguments, in table order; what they
/// hand back is not asked for (`repro all` writes no run outputs).
fn all(experiments: &[(&'static str, Body)], obs: &ObsOptions) -> Result<(), CliError> {
    let mut failed = Vec::new();
    for &(id, body) in experiments {
        println!("\n=============== {id} ===============");
        // A claim that does not reproduce is a failed assertion inside
        // that experiment; the ones after it still run.
        let ran = || body.run(Args::new(Vec::new()), obs, &mut Traces::default());
        match std::panic::catch_unwind(AssertUnwindSafe(ran)) {
            Ok(Ok(())) => {}
            Ok(Err(err)) => {
                eprintln!("error: {err}");
                failed.push(id);
            }
            Err(_) => failed.push(id),
        }
    }
    println!("\n=====================================");
    if failed.is_empty() {
        println!(
            "all {} experiments reproduced successfully",
            experiments.len()
        );
        Ok(())
    } else {
        println!("FAILED: {failed:?}");
        Err(CliError::Failed(format!(
            "{} of {} experiments failed",
            failed.len(),
            experiments.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static RAN: AtomicUsize = AtomicUsize::new(0);

    #[test]
    fn all_runs_past_a_failed_experiment_and_reports_it() {
        let table: [(&str, Body); 3] = [
            ("broken-claim", Fixed(|| panic!("the paper says 12"))),
            ("fine", Fixed(|| RAN.store(1, Ordering::SeqCst))),
            (
                "unwritable",
                Flags(|_, _, _| Err(CliError::Failed("disk full".into()))),
            ),
        ];
        let obs = ObsOptions::parse(&mut Args::new(Vec::new()), &[]).unwrap();
        assert_eq!(
            all(&table, &obs),
            Err(CliError::Failed("2 of 3 experiments failed".into()))
        );
        assert_eq!(RAN.load(Ordering::SeqCst), 1, "the one after the panic ran");
        assert!(all(&table[1..2], &obs).is_ok());
    }
}
