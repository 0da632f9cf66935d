//! The `ebda` command-line tool — the one executable of this repository:
//! design, inspect, verify and simulate deadlock-free routing algorithms,
//! run the campaigns, and regenerate every table and figure of the paper.
//!
//! ```text
//! ebda design   --vcs 3,2,3                     # Algorithm 1
//! ebda turns    "X- | X+ Y+ Y-"                 # Theorem 1-3 extraction
//! ebda verify   "X- | X+ Y+ Y-" --mesh 8x8      # Dally check
//! ebda options  --vcs 1,1                       # Algorithm 2 derivations
//! ebda simulate "X1+ Y1+ Y1- | X1- Y2+ Y2-" --mesh 8x8 --rate 0.05
//! ebda repro    table1                          # the paper's Table 1
//! ebda oracle   --budget 60 --seed 7            # four-path differential campaign
//! ```
//!
//! Exit codes: 0 success; 1 the command ran and its check failed (not
//! deadlock-free, mismatch, disagreement, rejected certificate) or a file
//! or socket could not be used; 2 the command line itself is wrong.

use ebda::bench::args::{Args, CliError};
use ebda::bench::trace::Output::{self, Coverage, Journeys, Ledger, RecorderTrace, Trace};
use ebda::bench::trace::{write_file, Document, ObsOptions, Traces};
use ebda::core::algorithm1::{partition_network, partition_network_region_covering};
use ebda::core::algorithm2::derive_all;
use ebda::core::sets::arrangement1;
use ebda::core::theorems::analyze;
use ebda::prelude::catalog;
use ebda::prelude::*;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            match args.first().and_then(|name| command(name)) {
                Some((usage, _)) => eprintln!("usage:\n  {usage}"),
                None => eprintln!("{}", help()),
            }
            ExitCode::from(2)
        }
    }
}

/// A subcommand's entry point: most read only their own flags; a few
/// also read the session's and may hand traces back to it.
enum Run {
    Plain(fn(Args) -> Result<(), CliError>),
    Session(fn(Args, &ObsOptions, &mut Traces) -> Result<(), CliError>),
}
use Run::{Plain, Session};

/// Every subcommand: its usage block (also its `help` entry; the second
/// word is the name it is selected by) and its entry point. Each also
/// takes the process flags of [`PROCESS_FLAGS`].
const COMMANDS: &[(&str, Run)] = &[
    (
        "ebda design   --vcs <a,b[,c...]> [--arrangement region|plain]
                                             run Algorithm 1 on a VC budget",
        Plain(cmd_design),
    ),
    (
        "ebda options  --vcs <a,b[,c...]>           enumerate Algorithm 2 derivations",
        Plain(cmd_options),
    ),
    (
        "ebda turns    \"<design>\" [--dot]            extract all allowable turns
                                             (--dot: Graphviz output)",
        Plain(cmd_turns),
    ),
    (
        "ebda verify   \"<design>\" [--mesh AxB[xC]] [--torus AxB[xC]] [--ledger FILE]
                                             (--ledger: run all four verdict
                                             paths and append one provenance-
                                             carrying run-ledger record)",
        Session(cmd_verify),
    ),
    (
        "ebda certify  --turns \"X1+>Y1+,Y1->X1-,...\"  reconstruct a partitioning
                                             certificate from raw turns",
        Plain(cmd_certify),
    ),
    (
        "ebda check-cert FILE                       independently re-validate every
                                             certificate / witness in a run
                                             ledger (or a single provenance
                                             JSON document) without re-running
                                             any prover",
        Plain(cmd_check_cert),
    ),
    (
        "ebda ledger   list FILE [--json]           one summary line per ledger record
                                             (--json: one canonical JSON array)
  ebda ledger   show FILE [HASH]             canonical JSON of the records
  ebda ledger   diff FILE1 FILE2             byte-compare two run ledgers",
        Plain(cmd_ledger),
    ),
    (
        "ebda coverage report FILE                  per-family table of a design-space
                                             coverage map (written by campaigns
                                             run with --coverage-out)
  ebda coverage diff FILE1 FILE2             compare two coverage maps; exit 0
                                             iff they are identical
  ebda coverage merge OUT FILE...            merge coverage maps (associative,
                                             commutative) into OUT",
        Plain(cmd_coverage),
    ),
    (
        "ebda explain  HASH --ledger FILE           human narrative of one verdict's
                                             proof evidence",
        Plain(cmd_explain),
    ),
    (
        "ebda report   \"<design>\"                    markdown design review",
        Plain(cmd_report),
    ),
    (
        "ebda simulate \"<design>\" [--mesh AxB] [--torus AxB] [--rate R]
                 [--traffic uniform|transpose|bitcomp]
                 [--policy multi|single] [--switching wh|vct|saf]
                 [--seed N]                  traffic RNG seed
                 [--watchdog-window W]       online stall watchdog: after W
                                             frozen/credit-stalled cycles, dump
                                             a suspected wait cycle (run goes on)
                 [--trace-out FILE]          flight-recorder trace (.json or .csv)
                 [--journey-out FILE]        per-packet journey timeline as
                                             Chrome Trace JSON for Perfetto /
                                             chrome://tracing
                                             (--journey-sample-rate P thins it)
                 [--heatmap-out FILE]        per-channel utilization heatmap CSV",
        Session(cmd_simulate),
    ),
    (
        "ebda repro    <id> [flags] | list | all    regenerate a table, figure or study
                                             of the paper (list: the ids; all:
                                             every one in turn); sweep, explore
                                             and scalability take --trace-out,
                                             sweep also --journey-out",
        Session(ebda::bench::repro::run),
    ),
    (
        "ebda oracle   [--budget SECS] [--seed N] [--min-configs N] [--max-configs N]
                 [--max-nodes N] [--mutate NAME] [--expect-disagreement]
                 [--coverage-guided] [--ledger FILE] [--coverage-out FILE]
                 [--trace-out FILE] [--journey-out FILE]
                                             differential campaign: random
                                             artifacts through all four verdict
                                             paths; a disagreement is shrunk
                                             and replayed in the simulator
                                             (--trace-out, --journey-out: the
                                             replay's)",
        Session(ebda::bench::oracle_cli::run),
    ),
    (
        "ebda corpus   generate --out DIR           build the labeled seed corpus
                                             (ten families, labels proven at
                                             generation time)
  ebda corpus   run DIR [--archive-to DIR] [--mutate NAME] [--inject-mismatch]
                 [--expect-mismatch] [--shrink-budget N]
                 [--ledger FILE] [--coverage-out FILE] [--trace-out FILE]
                                             regression campaign: check every
                                             entry against all four verdict
                                             paths; mismatches are shrunk and
                                             archived as labeled witnesses
  ebda corpus   stats DIR [--json]           deterministic corpus statistics",
        Session(ebda::bench::corpus_cli::run),
    ),
    (
        "ebda monitor  --addr HOST:PORT [--once] [--interval SECS] [--interval-ms N]
                 [--ledger FILE]             poll a /metrics endpoint and render
                                             a compact terminal snapshot;
                                             --interval re-renders in place;
                                             --ledger adds a recent-verdicts
                                             section from the run-ledger tail",
        Plain(cmd_monitor),
    ),
    (
        "ebda profile  FILE [--counters|--flame]    render a --profile-out report:
                                             default is the phase table with
                                             self/total times; --counters prints
                                             the deterministic work-unit tree
                                             (byte-identical at every --threads);
                                             --flame prints nested flame JSON",
        Plain(cmd_profile),
    ),
];

/// The process flags, which every command takes.
const PROCESS_FLAGS: &str = "every command also takes the process flags
  [--profile-out FILE]        self-profiler report (render: ebda profile FILE)
  [--metrics-addr HOST:PORT]  live Prometheus metrics at /metrics while it runs
                              (--metrics-linger SECS keeps them up after)
  [--threads N]               worker threads (else EBDA_THREADS, else hardware
                              parallelism; results are identical at every N)";

/// The run outputs each command writes, by the words that select it
/// (docs/OBSERVABILITY.md §3); every other command rejects their flags.
const OUTPUTS: &[(&[&str], &[Output])] = &[
    (&["simulate"], &[RecorderTrace, Journeys]),
    (&["oracle"], &[Trace, Journeys, Ledger, Coverage]),
    (&["corpus", "run"], &[Trace, Ledger, Coverage]),
    (&["repro", "sweep"], &[Trace, Journeys]),
    (&["repro", "explore"], &[Trace]),
    (&["repro", "scalability"], &[Trace]),
    (&["verify"], &[Ledger]),
];

const DESIGN_HELP: &str =
    "a <design> is partitions separated by '|' or '->', channels like X1+, Ye2-
(example: \"X- | X+ Y+ Y-\" is the west-first turn model), or a preset:
xy, west-first, north-last, negative-first, odd-even, dyxy, fig7c, fig9b,
fig9c, hamiltonian, table5.";

fn command(name: &str) -> Option<&'static (&'static str, Run)> {
    COMMANDS
        .iter()
        .find(|(usage, _)| usage.split_whitespace().nth(1) == Some(name))
}

fn help() -> String {
    let mut out = String::from("usage:\n");
    for (usage, _) in COMMANDS {
        out.push_str("  ");
        out.push_str(usage);
        out.push('\n');
    }
    out.push('\n');
    out.push_str(PROCESS_FLAGS);
    out.push_str("\n\n");
    out.push_str(DESIGN_HELP);
    out
}

/// Runs one command line in one observability session: the session is
/// read off the line and activated before the command runs, and finished
/// after it, whatever the command.
fn run(line: &[String]) -> Result<(), CliError> {
    let mut args = Args::new(line.to_vec());
    let Some(name) = args.word() else {
        return Err(CliError::usage("missing subcommand"));
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{}", help());
        return Ok(());
    }
    let Some((_, command)) = command(&name) else {
        return Err(CliError::Usage(format!("unknown subcommand {name:?}")));
    };
    let outputs = OUTPUTS
        .iter()
        .find(|(words, _)| line.get(..words.len()).is_some_and(|head| head == *words))
        .map_or(&[][..], |&(_, outputs)| outputs);
    let mut obs = ObsOptions::parse(&mut args, outputs)?;
    obs.activate(outputs);
    let mut traces = Traces::default();
    let ran = match command {
        Plain(run) => run(args),
        Session(run) => run(args, &obs, &mut traces),
    };
    obs.finish(ran, traces)
}

/// Ends the read of a command whose only input left is the required
/// `--vcs` budget (a mistyped flag is reported before a missing one).
fn vcs_budget(mut args: Args) -> Result<Vec<u8>, CliError> {
    let vcs = args.value_with("--vcs", ebda::bench::parse_vcs)?;
    args.finish()?;
    vcs.ok_or_else(|| CliError::usage("missing --vcs a,b[,c...]"))
}

/// `AxB[xC]`: at least one node per dimension, at most 2^20 in all.
fn parse_radix(spec: &str) -> Result<Vec<usize>, String> {
    let radix = spec
        .split(['x', 'X'])
        .map(|t| match t.parse::<usize>() {
            Ok(0) => Err(format!("bad radix {t:?}: must be at least 1")),
            Ok(r) => Ok(r),
            Err(e) => Err(format!("bad radix {t:?}: {e}")),
        })
        .collect::<Result<Vec<usize>, String>>()?;
    radix
        .iter()
        .try_fold(1usize, |nodes, &r| nodes.checked_mul(r))
        .filter(|&nodes| nodes <= 1 << 20)
        .ok_or("more than 2^20 nodes")?;
    Ok(radix)
}

/// Named design presets accepted wherever a design string is.
fn preset(name: &str) -> Option<PartitionSeq> {
    Some(match name {
        "xy" => catalog::p1_xy(),
        "west-first" | "wf" => catalog::p3_west_first(),
        "north-last" | "nl" => catalog::north_last(),
        "negative-first" | "nf" => catalog::p4_negative_first(),
        "odd-even" | "oe" => catalog::odd_even(),
        "dyxy" | "fig7b" => catalog::fig7b_dyxy(),
        "fig7c" => catalog::fig7c(),
        "fig9b" => catalog::fig9b(),
        "fig9c" => catalog::fig9c(),
        "hamiltonian" => catalog::hamiltonian(),
        "table5" => catalog::table5_partial3d(),
        _ => return None,
    })
}

/// Ends the read of a command whose one positional is a design: a preset
/// name or a partition string. A string that does not parse is a usage
/// error; one that parses but breaks Theorem 1 is a failed check.
fn design(args: Args) -> Result<PartitionSeq, CliError> {
    let [spec] = args.exactly("one design (a preset like west-first, or \"X- | X+ Y+ Y-\")")?;
    if let Some(seq) = preset(&spec) {
        return Ok(seq);
    }
    let seq =
        PartitionSeq::parse(&spec).map_err(|e| CliError::Usage(format!("design {spec:?}: {e}")))?;
    if seq.channels().is_empty() {
        return Err(CliError::Usage(format!("design {spec:?} has no channels")));
    }
    seq.validate()?;
    Ok(seq)
}

fn cmd_report(args: Args) -> Result<(), CliError> {
    let seq = design(args)?;
    let n = design_dims(&seq);
    let report = ebda::core::theorems::markdown_report(&seq, n, 3)?;
    print!("{report}");
    Ok(())
}

/// `--torus AxB` / `--mesh AxB`, read before the design is known.
fn topology_flag(args: &mut Args) -> Result<Option<Topology>, CliError> {
    if let Some(radix) = args.value_with("--torus", parse_radix)? {
        return Ok(Some(Topology::torus(&radix)));
    }
    Ok(args
        .value_with("--mesh", parse_radix)?
        .map(|radix| Topology::mesh(&radix)))
}

/// The requested topology, or a radix-4 mesh of the design's dimensions —
/// refused unless every class of the design exists on it.
fn topology_for(flag: Option<Topology>, seq: &PartitionSeq) -> Result<Topology, CliError> {
    let topo = flag.unwrap_or_else(|| Topology::mesh(&vec![4; design_dims(seq)]));
    topo.admit(&seq.channels()).map_err(CliError::Usage)?;
    Ok(topo)
}

fn design_dims(seq: &PartitionSeq) -> usize {
    seq.partitions()
        .iter()
        .flat_map(|p| p.channels().iter())
        .map(|c| c.dim.index() + 1)
        .max()
        .unwrap_or(1)
}

fn cmd_design(mut args: Args) -> Result<(), CliError> {
    let region = args
        .value_with("--arrangement", |raw| match raw {
            "region" => Ok(true),
            "plain" => Ok(false),
            _ => Err("unknown arrangement (try region, plain)".to_string()),
        })?
        .unwrap_or(true);
    let vcs = vcs_budget(args)?;
    let seq = if region {
        partition_network_region_covering(&vcs)
    } else {
        partition_network(&vcs)
    }?;
    println!("{seq}");
    let report = analyze(&seq, vcs.len())?;
    println!("{report}");
    Ok(())
}

fn cmd_options(args: Args) -> Result<(), CliError> {
    let vcs = vcs_budget(args)?;
    let options = derive_all(arrangement1(&vcs)?)?;
    println!("{} derivations from Algorithm 2:", options.len());
    for seq in options {
        println!("  {seq}");
    }
    Ok(())
}

fn cmd_turns(mut args: Args) -> Result<(), CliError> {
    let dot = args.switch("--dot");
    let seq = design(args)?;
    let ex = extract_turns(&seq)?;
    if dot {
        print!("{}", ebda::core::dot::extraction_dot(&seq, &ex));
        return Ok(());
    }
    println!("design: {seq}");
    for (kind, label) in [
        (TurnKind::Ninety, "90-degree"),
        (TurnKind::UTurn, "U-turns"),
        (TurnKind::ITurn, "I-turns"),
    ] {
        let list: Vec<String> = ex.turn_set().of_kind(kind).map(|t| t.to_string()).collect();
        if !list.is_empty() {
            println!("{label:>10}: {}", list.join(", "));
        }
    }
    println!("{}", ex.turn_set().counts());
    Ok(())
}

fn cmd_verify(mut args: Args, obs: &ObsOptions, _: &mut Traces) -> Result<(), CliError> {
    let topo = topology_flag(&mut args)?;
    let seq = design(args)?;
    let topo = topology_for(topo, &seq)?;
    let report = verify_design(&topo, &seq)?;
    println!("{report}");
    if let Some(path) = &obs.ledger {
        // The ledger record carries full provenance, so the honest
        // four-path evaluation (including brute force) runs here — the
        // Dally verdict above is untouched.
        let universe = seq.channels();
        let dims = topo.dims();
        let ex = extract_turns(&seq)?;
        let artifact = ebda::oracle::artifact::Artifact {
            id: 0,
            kind: ebda::oracle::artifact::ArtifactKind::Partitioning,
            radix: topo.radix().to_vec(),
            wrap: (0..dims)
                .map(|d| topo.wraps(Dimension::new(d as u8)))
                .collect(),
            vcs: ebda::cdg::dally::infer_vcs(&universe, dims),
            universe,
            turns: ex.turn_set().clone(),
            design: Some(seq.clone()),
        };
        let evaluation =
            ebda::oracle::Evaluation::of(&artifact, ebda::oracle::verdict::Mutation::None);
        let prov = evaluation.provenance();
        let coverage = evaluation.coverage();
        let record = prov.ledger_record(
            "cli",
            artifact.summary(),
            ebda_obs::ledger::git_rev(),
            0,
            Some(&coverage),
        );
        ebda_obs::ledger::append(path, &[record]).map_err(|e| format!("ledger append: {e}"))?;
        println!(
            "ledger: verdict {} recorded as {} in {}",
            prov.verdict_str(),
            prov.hash_hex(),
            path.display()
        );
    }
    if report.is_deadlock_free() {
        Ok(())
    } else {
        Err(CliError::Failed(
            "design is NOT deadlock-free on this topology".into(),
        ))
    }
}

/// `ebda check-cert FILE`: the independent certificate checker. Walks a
/// run-ledger JSONL file (or a file of bare provenance documents) and
/// re-validates every record's evidence — certificate obligations or
/// witness cycle — without calling any prover.
fn cmd_check_cert(args: Args) -> Result<(), CliError> {
    let [path] = args.exactly("one ledger or provenance file")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let mut checked = 0usize;
    let mut failed = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if ebda_obs::ledger::blank(line.as_bytes()) {
            continue;
        }
        checked += 1;
        let mut fail = |msg: String| {
            failed += 1;
            println!("FAIL line {}: {msg}", lineno + 1);
        };
        // A line is either one ledger record (provenance embedded) or one
        // bare provenance document.
        let (label, prov) = match ebda_obs::LedgerRecord::from_line(line) {
            Ok(rec) => match ebda::oracle::Provenance::from_json(&rec.provenance) {
                Ok(prov) => {
                    if rec.hash != prov.hash_hex() {
                        fail(format!(
                            "record #{} declares hash {} but its provenance hashes to {}",
                            rec.index,
                            rec.hash,
                            prov.hash_hex()
                        ));
                        continue;
                    }
                    if rec.verdict != prov.verdict_str() {
                        fail(format!(
                            "record #{} declares verdict {} but its provenance says {}",
                            rec.index,
                            rec.verdict,
                            prov.verdict_str()
                        ));
                        continue;
                    }
                    (format!("#{} {}", rec.index, rec.hash), prov)
                }
                Err(e) => {
                    fail(format!("embedded provenance: {e}"));
                    continue;
                }
            },
            Err(_) => match ebda::oracle::Provenance::from_json(line) {
                Ok(prov) => (prov.hash_hex(), prov),
                Err(e) => {
                    fail(format!(
                        "neither a ledger record nor a provenance document: {e}"
                    ));
                    continue;
                }
            },
        };
        match prov.check() {
            Ok(report) => println!(
                "PASS {label} {} via {} ({} obligations)",
                prov.verdict_str(),
                report.methods.join("+"),
                report.obligations
            ),
            Err(e) => fail(format!("{label}: {e}")),
        }
    }
    println!(
        "checked {checked} record(s): {} passed, {failed} failed",
        checked - failed
    );
    if checked == 0 {
        return Err(CliError::Failed(format!("{path} holds no records")));
    }
    if failed > 0 {
        return Err(CliError::Failed(format!(
            "{failed} record(s) failed the certificate check"
        )));
    }
    Ok(())
}

/// `ebda ledger <list|show|diff>`: inspect append-only run ledgers.
fn cmd_ledger(mut args: Args) -> Result<(), CliError> {
    match args.word().as_deref() {
        Some("list") => {
            let json = args.switch("--json");
            let [path] = args.exactly("ledger list FILE")?;
            if json {
                print!("{}", ebda_obs::ledger::render_json(Path::new(&path))?);
                return Ok(());
            }
            let records = ebda_obs::ledger::read(Path::new(&path))?;
            for r in &records {
                println!("{}", r.summary());
            }
            println!("{} record(s) in {path}", records.len());
            Ok(())
        }
        Some("show") => {
            let rest = args.positionals()?;
            let (path, hash) = match rest.as_slice() {
                [path] => (path, None),
                [path, hash] => (path, Some(hash)),
                _ => return Err(CliError::usage("expected ledger show FILE [HASH]")),
            };
            let records = ebda_obs::ledger::read(Path::new(path))?;
            let mut shown = 0;
            for r in &records {
                if hash.is_none_or(|h| r.hash.starts_with(h.as_str())) {
                    println!("{}", r.to_line());
                    shown += 1;
                }
            }
            match (shown, hash) {
                (0, Some(h)) => Err(CliError::Failed(format!("no record matches hash {h}"))),
                _ => Ok(()),
            }
        }
        Some("diff") => {
            let [a, b] = args.exactly("ledger diff FILE1 FILE2")?;
            match ebda_obs::ledger::diff(Path::new(&a), Path::new(&b))? {
                None => {
                    let n = ebda_obs::ledger::read(Path::new(&a))?.len();
                    println!("ledgers are byte-identical ({n} record(s))");
                    Ok(())
                }
                Some(delta) => Err(CliError::Failed(format!("ledgers differ: {delta}"))),
            }
        }
        other => Err(CliError::Usage(format!(
            "expected a ledger action (list, show, diff), got {}",
            other.unwrap_or("none")
        ))),
    }
}

/// `ebda coverage <report|diff|merge>`: inspect and combine design-space
/// coverage maps written by `--coverage-out` campaigns.
fn cmd_coverage(mut args: Args) -> Result<(), CliError> {
    let read = |path: &String| ebda_obs::CoverageMap::read_file(Path::new(path));
    match args.word().as_deref() {
        Some("report") => {
            let [path] = args.exactly("coverage report FILE")?;
            print!("{}", read(&path)?.report());
            Ok(())
        }
        Some("diff") => {
            let [a, b] = args.exactly("coverage diff FILE1 FILE2")?;
            let left = read(&a)?;
            match left.diff(&read(&b)?) {
                None => {
                    println!(
                        "coverage maps are identical ({} points, digest {})",
                        left.total_points(),
                        left.digest()
                    );
                    Ok(())
                }
                Some(delta) => Err(CliError::Failed(format!("coverage maps differ: {delta}"))),
            }
        }
        Some("merge") => {
            let rest = args.positionals()?;
            let [out, first, others @ ..] = rest.as_slice() else {
                return Err(CliError::usage(
                    "expected coverage merge OUT FILE... (at least one input)",
                ));
            };
            let mut merged = read(first)?;
            for path in others {
                merged.merge(&read(path)?);
            }
            merged.write_file(Path::new(out))?;
            println!(
                "merged {} map(s) into {out}: {} points, digest {}",
                1 + others.len(),
                merged.total_points(),
                merged.digest()
            );
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "expected a coverage action (report, diff, merge), got {}",
            other.unwrap_or("none")
        ))),
    }
}

/// `ebda explain HASH --ledger FILE`: render the proof narrative of one
/// recorded verdict.
fn cmd_explain(mut args: Args) -> Result<(), CliError> {
    let ledger: Option<PathBuf> = args.value("--ledger")?;
    let [hash] = args.exactly("one HASH (see `ebda ledger list`)")?;
    let ledger = ledger.ok_or_else(|| CliError::usage("missing --ledger FILE"))?;
    let records = ebda_obs::ledger::read(&ledger)?;
    // Prefix match, latest record wins — hashes are content addresses, so
    // duplicates describe the same problem.
    let record = records
        .iter()
        .rev()
        .find(|r| r.hash.starts_with(&hash))
        .ok_or_else(|| format!("no record in {} matches hash {hash}", ledger.display()))?;
    let prov = ebda::oracle::Provenance::from_json(&record.provenance)?;
    println!(
        "record #{} ({}, seed {}, git {}, {} GFP sweeps over {} wait pairs)",
        record.index,
        record.source,
        record.seed,
        record.git_rev,
        record.gfp_sweeps,
        record.wait_pairs
    );
    println!("{}", prov.narrative());
    Ok(())
}

/// `X1+>Y1+,Y1->X1-,...` as a turn set and the channels it mentions.
fn parse_turns(spec: &str) -> Result<(Vec<Channel>, TurnSet), String> {
    let mut turns = TurnSet::new();
    let mut universe: Vec<Channel> = Vec::new();
    for token in spec.split(',').filter(|t| !t.trim().is_empty()) {
        let turn = ebda::core::canonical::parse_turn(token)?;
        for c in [turn.from, turn.to] {
            if !universe.contains(&c) {
                universe.push(c);
            }
        }
        turns.insert(turn);
    }
    if turns.is_empty() {
        return Err("no turns given".into());
    }
    Ok((universe, turns))
}

fn cmd_certify(mut args: Args) -> Result<(), CliError> {
    let turns = args.value_with("--turns", parse_turns)?;
    args.finish()?;
    let (universe, turns) =
        turns.ok_or_else(|| CliError::usage("missing --turns \"A>B,C>D,...\""))?;
    match ebda::core::certify::certify_checked(&universe, &turns) {
        Ok((cert, surplus)) => {
            println!("CERTIFIED deadlock-free by the partitioning:");
            println!("  {cert}");
            if !surplus.is_empty() {
                println!(
                    "the certificate additionally allows {} unused turns",
                    surplus.len()
                );
            }
            Ok(())
        }
        Err(e) => Err(CliError::Failed(format!(
            "not certifiable: {e} (this does not prove deadlock; EbDa certificates are sufficient, not necessary)"
        ))),
    }
}

fn cmd_simulate(mut args: Args, obs: &ObsOptions, traces: &mut Traces) -> Result<(), CliError> {
    use ebda::sim::config::Switching;
    let topo = topology_flag(&mut args)?;
    let mut cfg = SimConfig::default();
    cfg.injection_rate = args.value("--rate")?.unwrap_or(cfg.injection_rate);
    if let Some(traffic) = args.value_with("--traffic", |raw| match raw {
        "uniform" => Ok(TrafficPattern::Uniform),
        "transpose" => Ok(TrafficPattern::Transpose),
        "bitcomp" => Ok(TrafficPattern::BitComplement),
        _ => Err("not one of uniform, transpose, bitcomp".to_string()),
    })? {
        cfg.traffic = traffic;
    }
    if let Some(policy) = args.value_with("--policy", |raw| match raw {
        "multi" => Ok(BufferPolicy::MultiPacket),
        "single" => Ok(BufferPolicy::SinglePacket),
        _ => Err("not one of multi, single".to_string()),
    })? {
        cfg.buffer_policy = policy;
    }
    if let Some(switching) = args.value_with("--switching", |raw| match raw {
        "wh" => Ok(Switching::Wormhole),
        "vct" => Ok(Switching::VirtualCutThrough),
        "saf" => Ok(Switching::StoreAndForward),
        _ => Err("not one of wh, vct, saf".to_string()),
    })? {
        cfg.switching = switching;
        if switching != Switching::Wormhole {
            cfg.buffer_depth = cfg.buffer_depth.max(cfg.packet_length);
        }
    }
    cfg.watchdog_window = args
        .value("--watchdog-window")?
        .unwrap_or(cfg.watchdog_window);
    cfg.seed = args.value("--seed")?.unwrap_or(cfg.seed);
    let heatmap: Option<PathBuf> = args.value("--heatmap-out")?;
    let seq = design(args)?;
    let topo = topology_for(topo, &seq)?;
    cfg.check().map_err(|e| CliError::Usage(e.to_string()))?;
    let relation = TurnRouting::from_design("cli", &seq)?;

    let mut rec = obs.recorder();
    let result = ebda::sim::simulate_traced(&topo, &relation, &cfg, rec.as_mut());
    println!("{result}");
    if let Some(cv) = result.channel_balance_cv() {
        println!("channel balance (CV, lower is better): {cv:.3}");
    }
    if result.watchdog_trips > 0 {
        println!(
            "watchdog: tripped {} time(s); suspected wait cycle at cycle {}:",
            result.watchdog_trips, result.suspected_at_cycle
        );
        for edge in &result.suspected_cycle {
            println!("  {}", edge.label);
        }
    }
    if let Some(rec) = rec {
        if let Some(tracer) = rec.journeys() {
            eprintln!(
                "journeys: {} traced ({} dropped at the cap)",
                tracer.journeys().len(),
                tracer.skipped()
            );
            let mut timeline = ebda_obs::TraceBuilder::new();
            timeline.add_run("ebda simulate", tracer);
            traces.journeys = Some(Document::Timeline(timeline));
        }
        traces.trace = Some(Document::Recorder(Box::new(rec)));
    }
    if let Some(path) = &heatmap {
        let csv = ebda::sim::channel_heatmap_csv(&topo, &relation, &cfg, &result);
        write_file("heatmap", path, csv)?;
        eprintln!("heatmap written to {}", path.display());
    }
    Ok(())
}

fn cmd_monitor(mut args: Args) -> Result<(), CliError> {
    let addr: Option<String> = args.value("--addr")?;
    let once = args.switch("--once");
    // `--interval <secs>` is the watch mode: clear the terminal and
    // re-render the snapshot in place each round, like `watch(1)`.
    // `--interval-ms` keeps the original append-only polling (and wins
    // on cadence when both are given).
    let watch_secs: Option<u64> = args.value("--interval")?;
    let interval_ms: u64 = args
        .value("--interval-ms")?
        .unwrap_or_else(|| watch_secs.map_or(2_000, |s| s.max(1).saturating_mul(1_000)));
    let ledger: Option<PathBuf> = args.value("--ledger")?;
    args.finish()?;
    let addr = addr.ok_or_else(|| CliError::usage("missing --addr host:port"))?;
    let in_place = watch_secs.is_some() && !once;
    loop {
        // A dead endpoint is an expected condition, not a parse bug:
        // report it as one clean line instead of the raw io error.
        let body = ebda_obs::http_get(&addr, "/metrics")
            .map_err(|_| format!("endpoint unreachable: {addr}"))?;
        let samples = ebda_obs::metrics::parse_exposition(&body)
            .map_err(|e| format!("malformed exposition from {addr}: {e}"))?;
        if in_place {
            print!("\x1b[2J\x1b[H");
        }
        println!("{}", monitor_snapshot(&addr, &samples));
        if let Some(path) = &ledger {
            let shown = path.display();
            match ebda_obs::ledger::tail(path, 5) {
                Ok(records) if records.is_empty() => {
                    println!("recent verdicts ({shown}): none yet");
                }
                Ok(records) => {
                    println!("recent verdicts ({shown}):");
                    for r in &records {
                        println!("  {}", r.summary());
                    }
                }
                Err(e) => println!("recent verdicts: unavailable ({e})"),
            }
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Renders a `--profile-out` report (or a bare snapshot JSON) in one of
/// three views: the human phase table (default), the deterministic
/// work-unit counter tree (`--counters`), or nested flame-style JSON
/// (`--flame`).
fn cmd_profile(mut args: Args) -> Result<(), CliError> {
    let counters = args.switch("--counters");
    let flame = args.switch("--flame");
    let [path] = args.exactly("one profile file (written by --profile-out)")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = ebda_obs::json::Value::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    // A --profile-out file is a Chrome trace with the snapshot spliced in
    // under "ebdaProfile"; a bare snapshot document works too.
    let snap = ebda_obs::ProfSnapshot::from_value(doc.get("ebdaProfile").unwrap_or(&doc))
        .map_err(|e| format!("{path}: {e}"))?;
    if counters {
        print!("{}", snap.counters_text());
    } else if flame {
        println!("{}", snap.flame_json());
    } else {
        print!("{}", snap.table());
    }
    Ok(())
}

/// Renders one compact terminal snapshot of a scraped exposition: run and
/// packet counters, latency quantiles reconstructed from the histogram
/// buckets, sweep/oracle campaign progress, worker-pool and stall-watchdog
/// state, and the busiest channels.
fn monitor_snapshot(addr: &str, samples: &[ebda_obs::metrics::Sample]) -> String {
    use ebda_obs::metrics::{counter_family, quantile_from_buckets};
    use std::fmt::Write as _;
    let value =
        |name: &str| -> Option<f64> { samples.iter().find(|s| s.name == name).map(|s| s.value) };
    // A counter is named after the profiler count it renders.
    let counter = |phase: &str, count: &str| counter_family(phase, count).and_then(value);
    let count = |v: Option<f64>| v.unwrap_or(0.0) as u64;
    let sim = |unit: &str| count(counter("sim/run", unit));
    let mut out = String::new();
    let _ = writeln!(out, "=== {addr} ({} samples) ===", samples.len());
    if let Some(runs) = counter("sim/run", "calls") {
        let _ = writeln!(
            out,
            "sim    : {} runs, {} injected, {} delivered, {} deadlocks, {} credit stalls",
            runs as u64,
            sim("packets_injected"),
            sim("packets_delivered"),
            sim("deadlocks"),
            sim("credit_stalls"),
        );
    }
    // `le` is a float; Rust reads `+Inf` (and `NaN`) as one.
    let latency_buckets: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == "ebda_sim_packet_latency_cycles_bucket")
        .filter_map(|s| Some((s.label("le")?.parse().ok()?, s.value)))
        .collect();
    if !latency_buckets.is_empty() {
        let q = |p: f64| {
            quantile_from_buckets(&latency_buckets, p)
                .map_or_else(|| "-".into(), |v| format!("{v:.0}"))
        };
        let _ = writeln!(
            out,
            "latency: p50 {} p90 {} p99 {} p999 {} (cycles)",
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
        );
    }
    if let Some(points) = counter("sweep/run", "points") {
        let _ = writeln!(out, "sweep  : {} points", points as u64);
    }
    if let Some(jobs) = counter("par/map", "calls") {
        let busy = counter("par/busy", "wall_ns").unwrap_or(0.0);
        let idle = counter("par/idle", "wall_ns").unwrap_or(0.0);
        let util = 100.0 * busy / (busy + idle).max(1.0);
        let _ = writeln!(
            out,
            "par    : {} jobs, {} tasks, queue depth {}, workers {util:.0}% busy",
            jobs as u64,
            count(counter("par/map", "tasks")),
            count(value("ebda_par_queue_depth")),
        );
    }
    if let Some(trips) = counter("sim/run", "watchdog_trips") {
        let _ = writeln!(
            out,
            "watchdog: {} trips, {} suspected cycles (last len {})",
            trips as u64,
            sim("suspected_cycles"),
            count(value("ebda_watchdog_suspected_cycle_len")),
        );
    }
    if let Some(checked) = counter("oracle/campaign", "artifacts_checked") {
        let campaign = |unit: &str| count(counter("oracle/campaign", unit));
        let _ = writeln!(
            out,
            "oracle : {} artifacts checked, {} deadlocking, {} disagreements, {} shrunk",
            checked as u64,
            campaign("deadlocking"),
            campaign("disagreements"),
            count(counter("oracle/shrink", "calls")),
        );
    }
    // NaN is a valid exposition value, but not a load to rank.
    let mut hot: Vec<&ebda_obs::metrics::Sample> = samples
        .iter()
        .filter(|s| s.name == "ebda_sim_channel_utilization" && !s.value.is_nan())
        .collect();
    hot.sort_by(|a, b| b.value.total_cmp(&a.value));
    if !hot.is_empty() {
        let top: Vec<String> = hot
            .iter()
            .take(5)
            .map(|s| {
                format!(
                    "n{} d{}{} vc{} {:.3}",
                    s.label("node").unwrap_or("?"),
                    s.label("dim").unwrap_or("?"),
                    s.label("dir").unwrap_or("?"),
                    s.label("vc").unwrap_or("?"),
                    s.value
                )
            })
            .collect();
        let _ = writeln!(out, "hottest channels: {}", top.join(" | "));
    }
    // The profiler's own families label every series by its phase.
    let phases: std::collections::BTreeSet<&str> =
        samples.iter().filter_map(|s| s.label("phase")).collect();
    if !phases.is_empty() {
        let _ = writeln!(out, "profile: {} phases", phases.len());
    }
    out.trim_end().to_string()
}

#[cfg(test)]
#[path = "../../crates/obs/tests/chrome_check/mod.rs"]
mod chrome_check;

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn design_subcommand() {
        run(&s(&["design", "--vcs", "1,2"])).unwrap();
    }

    #[test]
    fn verify_subcommand_accepts_good_designs() {
        run(&s(&["verify", "X- | X+ Y+ Y-", "--mesh", "5x5"])).unwrap();
    }

    #[test]
    fn verify_rejects_invalid_designs() {
        assert!(run(&s(&["verify", "X+ X- Y+ Y-"])).is_err());
    }

    #[test]
    fn turns_subcommand() {
        run(&s(&["turns", "X+ X- Y-"])).unwrap();
        run(&s(&["turns", "X+ X- Y-", "--dot"])).unwrap();
    }

    #[test]
    fn options_subcommand() {
        run(&s(&["options", "--vcs", "1,1"])).unwrap();
    }

    #[test]
    fn simulate_subcommand_small() {
        run(&s(&[
            "simulate",
            "X- | X+ Y+ Y-",
            "--mesh",
            "4x4",
            "--rate",
            "0.02",
        ]))
        .unwrap();
    }

    #[test]
    fn presets_and_report_subcommand() {
        run(&s(&["verify", "west-first", "--mesh", "4x4"])).unwrap();
        run(&s(&["report", "dyxy"])).unwrap();
        run(&s(&["turns", "odd-even"])).unwrap();
        assert!(run(&s(&["report", "no-such-preset"])).is_err());
    }

    #[test]
    fn certify_subcommand_accepts_west_first_turns() {
        run(&s(&[
            "certify",
            "--turns",
            "X1+>Y1+,Y1+>X1+,X1+>Y1-,Y1->X1+,X1->Y1+,X1->Y1-",
        ]))
        .unwrap();
    }

    #[test]
    fn certify_subcommand_rejects_all_turns() {
        let result = run(&s(&[
            "certify",
            "--turns",
            "X1+>Y1+,Y1+>X1+,X1+>Y1-,Y1->X1+,X1->Y1+,Y1+>X1-,X1->Y1-,Y1->X1-",
        ]));
        let err = result.unwrap_err();
        assert!(matches!(&err, CliError::Failed(m) if m.contains("not certifiable")));
    }

    // The snapshot is rendered from a fixed exposition: the global
    // registry and the profiler are shared with every other test. NaN is
    // a valid value; a `le="NaN"` bucket and NaN gauges must not panic.
    #[test]
    fn monitor_scrapes_and_renders_a_live_endpoint() {
        let server = ebda_obs::MetricsServer::serve("127.0.0.1:0", None, None).unwrap();
        let addr = server.local_addr().to_string();
        run(&s(&["monitor", "--addr", &addr, "--once"])).unwrap();
        server.shutdown();
        let text = r#"ebda_sim_runs_total 2
            ebda_sim_packets_injected_total 10
            ebda_sim_packet_latency_cycles_bucket{le="12"} 1
            ebda_sim_packet_latency_cycles_bucket{le="NaN"} 1
            ebda_sim_packet_latency_cycles_bucket{le="+Inf"} 1
            ebda_par_jobs_total 3
            ebda_par_tasks_total 24
            ebda_par_worker_busy_ns_total 900
            ebda_par_worker_idle_ns_total 100
            ebda_watchdog_trips_total 1
            ebda_watchdog_suspected_cycles_total 1
            ebda_watchdog_suspected_cycle_len 4
            ebda_prof_phase_calls_total{phase="sim/run"} 1
            ebda_prof_work_units_total{phase="sim/run",unit="cycles"} 9
            ebda_prof_phase_calls_total{phase="sim/run/route"} 1
            ebda_sim_channel_utilization{node="1",dim="0",dir="+",vc="0"} NaN
            ebda_sim_channel_utilization{node="3",dim="0",dir="+",vc="0"} 0.25
            ebda_sim_channel_utilization{node="2",dim="0",dir="+",vc="0"} NaN"#;
        let samples = ebda_obs::metrics::parse_exposition(text).unwrap();
        let snap = monitor_snapshot(&addr, &samples);
        for line in [
            "sim    : 2 runs",
            "latency: p50 12",
            "par    : 3 jobs, 24 tasks, queue depth 0, workers 90% busy",
            "watchdog: 1 trips, 1 suspected cycles (last len 4)",
            "hottest channels: n3 d0+ vc0 0.250\n",
            "profile: 2 phases",
        ] {
            assert!(snap.contains(line), "{line:?} missing from\n{snap}");
        }
    }

    #[test]
    fn simulate_writes_a_journey_trace() {
        let path = std::env::temp_dir().join("ebda-cli-journey.json");
        run(&s(&[
            "simulate",
            "X- | X+ Y+ Y-",
            "--mesh",
            "4x4",
            "--rate",
            "0.02",
            "--seed",
            "42",
            "--watchdog-window",
            "200",
            "--journey-out",
            path.to_str().unwrap(),
            "--journey-sample-rate",
            "0.5",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = chrome_check::validate(&text).expect("valid Trace Event Format");
        assert!(summary.complete > 0, "hold spans expected");
        assert!(summary.tracks > 1, "per-router tracks expected");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_profile_out_roundtrips_through_profile_subcommand() {
        let path = std::env::temp_dir().join("ebda-cli-profile.json");
        run(&s(&[
            "simulate",
            "X- | X+ Y+ Y-",
            "--mesh",
            "4x4",
            "--rate",
            "0.02",
            "--profile-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        chrome_check::validate(&text).expect("profile is a valid Chrome trace");
        let doc = ebda_obs::json::Value::parse(&text).unwrap();
        let snap = ebda_obs::ProfSnapshot::from_value(doc.get("ebdaProfile").unwrap()).unwrap();
        assert!(snap.phases.contains_key("sim/run"), "{:?}", snap.phases);
        // All three render modes work off the written file.
        run(&s(&["profile", path.to_str().unwrap()])).unwrap();
        run(&s(&["profile", path.to_str().unwrap(), "--counters"])).unwrap();
        run(&s(&["profile", path.to_str().unwrap(), "--flame"])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_requires_a_readable_file() {
        assert!(run(&s(&["profile"])).is_err());
        assert!(run(&s(&["profile", "/nonexistent/p.json"])).is_err());
    }

    #[test]
    fn monitor_requires_an_addr() {
        assert!(run(&s(&["monitor"])).is_err());
    }

    #[test]
    fn monitor_reports_a_dead_endpoint_cleanly() {
        // Nothing listens on a freshly bound-then-dropped port; the error
        // must be the clean one-liner, not a raw io error string.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let err = run(&s(&["monitor", "--addr", &addr, "--once"])).unwrap_err();
        assert_eq!(err, format!("endpoint unreachable: {addr}").into());
    }

    #[test]
    fn coverage_report_diff_merge_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ebda-cli-cov-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = ebda_obs::CoverageMap::new("cli-a");
        a.record("design_bin", "d2.r4.w0.v1.tlo.free");
        a.record("obligation", "theorem1/p0");
        let mut b = ebda_obs::CoverageMap::new("cli-b");
        b.record("design_bin", "d2.r4.w0.v1.tlo.free");
        b.record("gfp_pair", "X1+>Y1+");
        let pa = dir.join("a.json");
        let pb = dir.join("b.json");
        let pm = dir.join("m.json");
        a.write_file(&pa).unwrap();
        b.write_file(&pb).unwrap();
        let arg = |p: &std::path::Path| p.to_str().unwrap().to_string();
        run(&s(&["coverage", "report", &arg(&pa)])).unwrap();
        run(&s(&["coverage", "diff", &arg(&pa), &arg(&pa)])).unwrap();
        assert!(run(&s(&["coverage", "diff", &arg(&pa), &arg(&pb)])).is_err());
        run(&s(&["coverage", "merge", &arg(&pm), &arg(&pa), &arg(&pb)])).unwrap();
        let merged = ebda_obs::CoverageMap::read_file(&pm).unwrap();
        let hits = |family: &str, point: &str| {
            let mut points = merged.points(family);
            points.find(|&(p, _)| p == point).map_or(0, |(_, n)| n)
        };
        assert_eq!(hits("design_bin", "d2.r4.w0.v1.tlo.free"), 2);
        assert_eq!(hits("gfp_pair", "X1+>Y1+"), 1);
        assert!(run(&s(&["coverage"])).is_err());
        assert!(run(&s(&["coverage", "frobnicate"])).is_err());
        assert!(run(&s(&["coverage", "merge", &arg(&pm)])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitor_rejects_a_bad_interval() {
        let r = run(&s(&[
            "monitor",
            "--addr",
            "127.0.0.1:1",
            "--interval",
            "soon",
        ]));
        assert!(matches!(r, Err(CliError::Usage(m)) if m.contains("--interval \"soon\"")));
    }

    #[test]
    fn verify_ledger_check_cert_explain_roundtrip() {
        let path =
            std::env::temp_dir().join(format!("ebda-cli-ledger-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let p = path.to_str().unwrap().to_string();
        run(&s(&[
            "verify",
            "X- | X+ Y+ Y-",
            "--mesh",
            "4x4",
            "--ledger",
            &p,
        ]))
        .unwrap();
        // A deadlocking design still gets its verdict recorded, even
        // though verify itself exits non-zero.
        assert!(run(&s(&["verify", "xy", "--torus", "4x4", "--ledger", &p])).is_err());

        run(&s(&["check-cert", &p])).unwrap();
        run(&s(&["ledger", "list", &p])).unwrap();
        run(&s(&["ledger", "list", &p, "--json"])).unwrap();
        run(&s(&["ledger", "show", &p])).unwrap();
        run(&s(&["ledger", "diff", &p, &p])).unwrap();

        // The --json body is one parseable array with a coverage digest
        // per record (cmd_verify computes per-artifact coverage).
        let body = ebda_obs::ledger::render_json(&path).unwrap();
        let doc = ebda_obs::json::Value::parse(&body).unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        let digest = arr[0].get("coverage").and_then(|v| v.as_str()).unwrap();
        assert_eq!(digest.len(), 16, "digest: {digest}");

        let records = ebda_obs::ledger::read(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].index, 0);
        assert_eq!(records[0].source, "cli");
        assert_eq!(records[0].verdict, "deadlock-free");
        assert_eq!(records[0].evidence, "certificate");
        assert_eq!(records[1].verdict, "deadlocking");
        assert_eq!(records[1].evidence, "witness");

        run(&s(&["explain", &records[1].hash, "--ledger", &p])).unwrap();
        assert!(run(&s(&["explain", "ffffffffffffffff", "--ledger", &p])).is_err());
        assert!(run(&s(&["ledger", "show", &p, "ffff"])).is_err());

        // Tampering with a record's verdict must trip the independent
        // checker (the outer verdict no longer matches the provenance).
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen(
            "\"verdict\":\"deadlock-free\"",
            "\"verdict\":\"deadlocking\"",
            1,
        );
        assert_ne!(text, tampered, "tamper target not found");
        let bad = path.with_extension("tampered.jsonl");
        std::fs::write(&bad, tampered).unwrap();
        let err = run(&s(&["check-cert", bad.to_str().unwrap()])).unwrap_err();
        assert!(
            err.to_string().contains("failed the certificate check"),
            "{err}"
        );
        assert!(run(&s(&["ledger", "diff", &p, bad.to_str().unwrap()])).is_err());

        std::fs::remove_file(&bad).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_cert_and_ledger_usage_errors() {
        assert!(run(&s(&["check-cert"])).is_err());
        assert!(run(&s(&["check-cert", "/nonexistent/ledger.jsonl"])).is_err());
        assert!(run(&s(&["ledger"])).is_err());
        assert!(run(&s(&["ledger", "frobnicate"])).is_err());
        assert!(run(&s(&["ledger", "list"])).is_err());
        assert!(run(&s(&["ledger", "diff", "/tmp/only-one"])).is_err());
        assert!(run(&s(&["explain", "abcd"])).is_err());
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn radix_and_vcs_parsing() {
        assert_eq!(parse_radix("4x4x2").unwrap(), vec![4, 4, 2]);
        assert!(parse_radix("4xq").is_err());
        assert!(parse_radix("4x0").is_err());
        assert!(parse_radix("99999999x99999999x99999999").is_err());
        let args = Args::new(s(&["--vcs", "3,2,3"]));
        assert_eq!(vcs_budget(args).unwrap(), vec![3, 2, 3]);
    }
}
