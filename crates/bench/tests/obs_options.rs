//! Table-driven coverage of the one observability flag parser
//! (`ebda_bench::trace::ObsOptions`): flag extraction, the run outputs
//! read only where declared, the `--threads` / `EBDA_THREADS` layering,
//! and a usage error naming the flag on malformed or value-less input.

use ebda_bench::args::{Args, CliError};
use ebda_bench::trace::{ObsOptions, Output};
use std::path::PathBuf;

/// Every run output declared, as no one command does.
const ALL: &[Output] = &[
    Output::Trace,
    Output::Journeys,
    Output::Ledger,
    Output::Coverage,
];

fn args(s: &str) -> Args {
    Args::new(s.split_whitespace().map(String::from).collect())
}

/// One happy-path row: input line → expected fields and leftover words.
/// A row spells out what its line sets; the rest is [`UNSET`].
struct Case {
    name: &'static str,
    args: &'static str,
    trace: Option<&'static str>,
    journey: Option<&'static str>,
    rate: f64,
    metrics_addr: Option<&'static str>,
    linger: u64,
    profile: Option<&'static str>,
    leftover: &'static str,
}

const UNSET: Case = Case {
    name: "",
    args: "",
    trace: None,
    journey: None,
    rate: 1.0,
    metrics_addr: None,
    linger: 0,
    profile: None,
    leftover: "",
};

#[test]
fn flag_extraction_table() {
    let cases = [
        Case {
            name: "no flags: everything defaults, the line is untouched",
            args: "run quick",
            leftover: "run quick",
            ..UNSET
        },
        Case {
            name: "trace alone",
            args: "--trace-out /tmp/t.json",
            trace: Some("/tmp/t.json"),
            ..UNSET
        },
        Case {
            name: "profile alone",
            args: "--profile-out /tmp/p.json run",
            profile: Some("/tmp/p.json"),
            leftover: "run",
            ..UNSET
        },
        Case {
            name: "journey alone keeps the default sample rate",
            args: "work --journey-out /tmp/j.json",
            journey: Some("/tmp/j.json"),
            leftover: "work",
            ..UNSET
        },
        Case {
            name: "journey with an explicit sample rate",
            args: "--journey-sample-rate 0.25 --journey-out j.json",
            journey: Some("j.json"),
            rate: 0.25,
            ..UNSET
        },
        Case {
            name: "a sample rate without a journey path is still parsed",
            args: "--journey-sample-rate 0.5",
            rate: 0.5,
            ..UNSET
        },
        Case {
            name: "all flags at once, positionals preserved in order",
            args: "a --trace-out t.csv --journey-out j.json --journey-sample-rate 0.5 \
                   --metrics-addr 127.0.0.1:0 --metrics-linger 3 --profile-out p.json b",
            trace: Some("t.csv"),
            journey: Some("j.json"),
            rate: 0.5,
            metrics_addr: Some("127.0.0.1:0"),
            linger: 3,
            profile: Some("p.json"),
            leftover: "a b",
        },
    ];
    for c in &cases {
        let mut args = args(c.args);
        let obs = ObsOptions::parse(&mut args, &[Output::Trace, Output::Journeys]).expect(c.name);
        assert_eq!(obs.trace, c.trace.map(PathBuf::from), "{}", c.name);
        assert_eq!(obs.journey, c.journey.map(PathBuf::from), "{}", c.name);
        assert_eq!(obs.journey_sample_rate, c.rate, "{}", c.name);
        assert_eq!(obs.metrics_addr.as_deref(), c.metrics_addr, "{}", c.name);
        assert_eq!(obs.metrics_linger, c.linger, "{}", c.name);
        assert_eq!(obs.profile, c.profile.map(PathBuf::from), "{}", c.name);
        let leftover: Vec<&str> = c.leftover.split_whitespace().collect();
        assert_eq!(args.positionals().unwrap(), leftover, "{}", c.name);
        // Evidence flags are read where they are declared only.
        assert_eq!((obs.ledger, obs.coverage), (None, None), "{}", c.name);
    }
}

/// Each run output is read where its declaration says so and stays on
/// the line everywhere else, where the command's own read rejects it as
/// an unknown flag; the process flags are read under any declaration.
#[test]
fn run_outputs_are_read_where_declared() {
    let rows = [
        ("--trace-out t.json", Output::Trace),
        ("--trace-out t.json", Output::RecorderTrace),
        ("--journey-out j.json", Output::Journeys),
        ("--journey-sample-rate 0.5", Output::Journeys),
        ("--ledger l.jsonl", Output::Ledger),
        ("--coverage-out c.json", Output::Coverage),
    ];
    for (line, output) in rows {
        let flag = line.split_whitespace().next().unwrap();
        let mut undeclared = args(line);
        ObsOptions::parse(&mut undeclared, &[]).unwrap();
        let unknown = Err(CliError::usage(format!("unknown flag {flag}")));
        assert_eq!(undeclared.finish(), unknown, "{line} undeclared");
        let mut declared = args(line);
        ObsOptions::parse(&mut declared, &[output]).unwrap();
        assert_eq!(declared.finish(), Ok(()), "{line} declared");
    }
    let line = "--ledger l.jsonl --coverage-out c.json --threads 2 --profile-out p.json";
    let obs = ObsOptions::parse(&mut args(line), ALL).unwrap();
    assert_eq!(obs.ledger, Some(PathBuf::from("l.jsonl")));
    assert_eq!(obs.coverage, Some(PathBuf::from("c.json")));
    let process = "--threads 2 --profile-out p.json --metrics-addr 127.0.0.1:0 --metrics-linger 1";
    let mut line = args(process);
    let obs = ObsOptions::parse(&mut line, &[]).unwrap();
    assert_eq!(line.finish(), Ok(()), "process flags are read everywhere");
    assert_eq!(obs.threads, 2);
    assert_eq!(obs.profile, Some(PathBuf::from("p.json")));
    assert_eq!(obs.metrics_addr.as_deref(), Some("127.0.0.1:0"));
    assert_eq!(obs.metrics_linger, 1);
}

/// Nothing in this file calls `ObsOptions::activate`: it installs the
/// process-global thread override, which would outrank the variable set
/// here (activation failures are pinned at the process level, tests/cli.rs).
#[test]
fn threads_flag_and_env_layering() {
    let threads = |line: &str| ObsOptions::parse(&mut args(line), ALL).unwrap().threads;
    std::env::remove_var("EBDA_THREADS");

    // Explicit flag wins and is removed from the line.
    let mut line = args("work --threads 3 rest");
    assert_eq!(ObsOptions::parse(&mut line, ALL).unwrap().threads, 3);
    assert_eq!(line.positionals().unwrap(), ["work", "rest"]);

    // Without the flag, EBDA_THREADS decides.
    std::env::set_var("EBDA_THREADS", "5");
    assert_eq!(threads("work"), 5);

    // Flag beats the variable.
    assert_eq!(threads("--threads 2"), 2);
    std::env::remove_var("EBDA_THREADS");

    // Neither: hardware parallelism, and always at least one worker.
    assert_eq!(threads(""), ebda_par::available());
    assert!(ebda_par::available() >= 1);
}

/// Malformed input is a usage error with the offending flag named — these
/// are explicitly requested observability layers, so silent misparses
/// would lose data the user asked for.
#[test]
fn malformed_flags_are_usage_errors_with_the_flag_named() {
    let cases = [
        ("--trace-out", "--trace-out needs a value"),
        ("--profile-out", "--profile-out needs a value"),
        ("--journey-out", "--journey-out needs a value"),
        (
            "--journey-sample-rate",
            "--journey-sample-rate needs a value",
        ),
        ("--metrics-addr", "--metrics-addr needs a value"),
        ("--metrics-linger", "--metrics-linger needs a value"),
        ("--metrics-linger soon", "--metrics-linger \"soon\""),
        ("--trace-out --threads 2", "--trace-out needs a value"),
        (
            "--journey-sample-rate nope",
            "--journey-sample-rate \"nope\": needs a number in [0, 1]",
        ),
        (
            "--journey-sample-rate 1.5",
            "--journey-sample-rate \"1.5\": needs a number in [0, 1]",
        ),
        ("--threads", "--threads needs a value"),
        (
            "--threads zero",
            "--threads \"zero\": needs a positive integer",
        ),
        ("--threads 0", "--threads \"0\": needs a positive integer"),
        ("--ledger", "--ledger needs a value"),
        ("--coverage-out", "--coverage-out needs a value"),
    ];
    for (line, expected) in cases {
        match ObsOptions::parse(&mut args(line), ALL) {
            Err(CliError::Usage(msg)) => assert!(msg.contains(expected), "{line}: {msg}"),
            other => panic!("{line} must be a usage error, got {other:?}"),
        }
    }
}
