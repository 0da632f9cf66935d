//! The `ebda` command-line tool: design, inspect, verify and simulate
//! deadlock-free routing algorithms from the shell.
//!
//! ```text
//! ebda design   --vcs 3,2,3                     # Algorithm 1
//! ebda turns    "X- | X+ Y+ Y-"                 # Theorem 1-3 extraction
//! ebda verify   "X- | X+ Y+ Y-" --mesh 8x8      # Dally check
//! ebda options  --vcs 1,1                       # Algorithm 2 derivations
//! ebda simulate "X1+ Y1+ Y1- | X1- Y2+ Y2-" --mesh 8x8 --rate 0.05
//! ```

use ebda::core::algorithm1::{partition_network, partition_network_region_covering};
use ebda::core::algorithm2::derive_all;
use ebda::core::sets::arrangement1;
use ebda::core::theorems::analyze;
use ebda::prelude::catalog;
use ebda::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  ebda design   --vcs <a,b[,c...]> [--arrangement region|plain]
                                             run Algorithm 1 on a VC budget
  ebda options  --vcs <a,b[,c...]>           enumerate Algorithm 2 derivations
  ebda turns    \"<design>\" [--dot]            extract all allowable turns
                                             (--dot: Graphviz output)
  ebda verify   \"<design>\" [--mesh AxB[xC]] [--torus AxB[xC]] [--ledger FILE]
                                             (--ledger: run all four verdict
                                             paths and append one provenance-
                                             carrying run-ledger record)
  ebda certify  --turns \"X1+>Y1+,Y1->X1-,...\"  reconstruct a partitioning
                                             certificate from raw turns
  ebda check-cert FILE                       independently re-validate every
                                             certificate / witness in a run
                                             ledger (or a single provenance
                                             JSON document) without re-running
                                             any prover
  ebda ledger   list FILE [--json]           one summary line per ledger record
                                             (--json: one canonical JSON array)
  ebda ledger   show FILE [HASH]             canonical JSON of the records
  ebda ledger   diff FILE1 FILE2             byte-compare two run ledgers
  ebda coverage report FILE                  per-family table of a design-space
                                             coverage map (written by campaigns
                                             run with --coverage-out)
  ebda coverage diff FILE1 FILE2             compare two coverage maps; exit 0
                                             iff they are identical
  ebda coverage merge OUT FILE...            merge coverage maps (associative,
                                             commutative) into OUT
  ebda explain  HASH --ledger FILE           human narrative of one verdict's
                                             proof evidence
  ebda report   \"<design>\"                    markdown design review
  ebda simulate \"<design>\" [--mesh AxB] [--rate R] [--traffic uniform|transpose|bitcomp]
                 [--policy multi|single] [--switching wh|vct|saf]
                 [--seed N]                  traffic RNG seed
                 [--watchdog-window W]       online stall watchdog: after W
                                             frozen/credit-stalled cycles, dump
                                             a suspected wait cycle (run goes on)
                 [--trace-out FILE]          flight-recorder trace (.json or
                                             .csv; EBDA_TRACE env works too)
                 [--journey-out FILE]        per-packet journey timeline as
                                             Chrome Trace JSON for Perfetto /
                                             chrome://tracing (EBDA_JOURNEY_OUT;
                                             --journey-sample-rate P thins it)
                 [--metrics-addr HOST:PORT]  serve live Prometheus metrics at
                                             /metrics (EBDA_METRICS_ADDR too;
                                             --metrics-linger SECS keeps it up)
                 [--profile-out FILE]        deterministic self-profiler report:
                                             phase tree + worker timeline as
                                             Chrome Trace JSON (EBDA_PROFILE_OUT;
                                             render with `ebda profile FILE`)
                 [--threads N]               worker threads for parallel helpers
                                             (EBDA_THREADS; default: hardware
                                             parallelism; results are identical
                                             at every value)
                 [--heatmap-out FILE]        per-channel utilization heatmap CSV
  ebda corpus   generate --out DIR           build the labeled seed corpus
                                             (ten families, labels proven at
                                             generation time)
  ebda corpus   run DIR [--archive-to DIR] [--mutate NAME] [--inject-mismatch]
                 [--expect-mismatch] [--shrink-budget N] [--threads N]
                 [--ledger FILE] [--coverage-out FILE]
                                             regression campaign: check every
                                             entry against all four verdict
                                             paths; mismatches are shrunk and
                                             archived as labeled witnesses
  ebda corpus   stats DIR [--json]           deterministic corpus statistics
  ebda monitor  --addr HOST:PORT [--once] [--interval SECS] [--interval-ms N]
                 [--ledger FILE]             poll a /metrics endpoint and render
                                             a compact terminal snapshot;
                                             --interval re-renders in place;
                                             --ledger adds a recent-verdicts
                                             section from the run-ledger tail
  ebda profile  FILE [--counters|--flame]    render a --profile-out report:
                                             default is the phase table with
                                             self/total times; --counters prints
                                             the deterministic work-unit tree
                                             (byte-identical at every --threads);
                                             --flame prints nested flame JSON

a <design> is partitions separated by '|' or '->', channels like X1+, Ye2-
(example: \"X- | X+ Y+ Y-\" is the west-first turn model), or a preset:
xy, west-first, north-last, negative-first, odd-even, dyxy, fig7c, fig9b,
fig9c, hamiltonian, table5.";

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "design" => cmd_design(rest),
        "options" => cmd_options(rest),
        "turns" => cmd_turns(rest),
        "verify" => cmd_verify(rest),
        "certify" => cmd_certify(rest),
        "check-cert" => cmd_check_cert(rest),
        "ledger" => cmd_ledger(rest),
        "coverage" => cmd_coverage(rest),
        "explain" => cmd_explain(rest),
        "report" => cmd_report(rest),
        "simulate" => cmd_simulate(rest),
        "corpus" => match ebda::bench::corpus_cli::run(rest.to_vec()) {
            0 => Ok(()),
            code => Err(format!("corpus command failed (exit {code})")),
        },
        "monitor" => cmd_monitor(rest),
        "profile" => cmd_profile(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_vcs(args: &[String]) -> Result<Vec<u8>, String> {
    let spec = flag_value(args, "--vcs").ok_or("missing --vcs a,b[,c...]")?;
    spec.split(',')
        .map(|t| {
            t.trim()
                .parse::<u8>()
                .map_err(|e| format!("bad VC count {t:?}: {e}"))
        })
        .collect()
}

fn parse_radix(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(['x', 'X'])
        .map(|t| {
            t.parse::<usize>()
                .map_err(|e| format!("bad radix {t:?}: {e}"))
        })
        .collect()
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

fn parse_design(args: &[String]) -> Result<PartitionSeq, String> {
    if let Some(seq) = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .find_map(|a| preset(a))
    {
        return Ok(seq);
    }
    let spec = args
        .iter()
        .find(|a| !a.starts_with("--") && !a.contains('=') && a.contains(['+', '-']))
        .ok_or("missing design argument (a preset like west-first, or \"X- | X+ Y+ Y-\")")?;
    let seq = PartitionSeq::parse(spec).map_err(|e| e.to_string())?;
    seq.validate().map_err(|e| e.to_string())?;
    Ok(seq)
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let seq = parse_design(args)?;
    let n = design_dims(&seq);
    let report = ebda::core::theorems::markdown_report(&seq, n, 3).map_err(|e| e.to_string())?;
    print!("{report}");
    Ok(())
}

fn topology(args: &[String], default_dims: usize) -> Result<Topology, String> {
    if let Some(spec) = flag_value(args, "--torus") {
        return Ok(Topology::torus(&parse_radix(spec)?));
    }
    if let Some(spec) = flag_value(args, "--mesh") {
        return Ok(Topology::mesh(&parse_radix(spec)?));
    }
    Ok(Topology::mesh(&vec![4; default_dims.max(1)]))
}

fn design_dims(seq: &PartitionSeq) -> usize {
    seq.partitions()
        .iter()
        .flat_map(|p| p.channels().iter())
        .map(|c| c.dim.index() + 1)
        .max()
        .unwrap_or(1)
}

fn cmd_design(args: &[String]) -> Result<(), String> {
    let vcs = parse_vcs(args)?;
    let seq = match flag_value(args, "--arrangement") {
        None | Some("region") => {
            partition_network_region_covering(&vcs).map_err(|e| e.to_string())?
        }
        Some("plain") => partition_network(&vcs).map_err(|e| e.to_string())?,
        Some(other) => return Err(format!("unknown arrangement {other:?}")),
    };
    println!("{seq}");
    let report = analyze(&seq, vcs.len()).map_err(|e| e.to_string())?;
    println!("{report}");
    Ok(())
}

fn cmd_options(args: &[String]) -> Result<(), String> {
    let vcs = parse_vcs(args)?;
    let options =
        derive_all(arrangement1(&vcs).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    println!("{} derivations from Algorithm 2:", options.len());
    for seq in options {
        println!("  {seq}");
    }
    Ok(())
}

fn cmd_turns(args: &[String]) -> Result<(), String> {
    let seq = parse_design(args)?;
    let ex = extract_turns(&seq).map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--dot") {
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

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let seq = parse_design(args)?;
    let topo = topology(args, design_dims(&seq))?;
    if topo.dims() < design_dims(&seq) {
        return Err(format!(
            "the design uses {} dimensions but the topology has {}",
            design_dims(&seq),
            topo.dims()
        ));
    }
    let report = verify_design(&topo, &seq).map_err(|e| e.to_string())?;
    println!("{report}");
    if let Some(path) = flag_value(args, "--ledger") {
        // The ledger record carries full provenance, so the honest
        // four-path evaluation (including brute force) runs here — the
        // Dally verdict above is untouched.
        let universe = seq.channels();
        let dims = topo.dims();
        let ex = extract_turns(&seq).map_err(|e| e.to_string())?;
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
        let verdicts =
            ebda::oracle::verdict::evaluate(&artifact, ebda::oracle::verdict::Mutation::None);
        let prov = ebda::oracle::Provenance::from_artifact(&artifact, &verdicts);
        let coverage = ebda::oracle::artifact_coverage(&artifact, &verdicts);
        let record = ebda_obs::LedgerRecord {
            index: 0,
            source: "cli".into(),
            name: artifact.summary(),
            git_rev: ebda_obs::ledger::git_rev(),
            seed: 0,
            verdict: prov.verdict_str().into(),
            evidence: if prov.deadlock_free {
                "certificate".into()
            } else {
                "witness".into()
            },
            hash: prov.hash_hex(),
            gfp_sweeps: verdicts.brute.sweeps as u64,
            wait_pairs: verdicts.brute.pairs as u64,
            coverage: coverage.digest(),
            provenance: prov.to_json(),
        };
        let path = std::path::PathBuf::from(path);
        ebda_obs::ledger::append(&path, &[record]).map_err(|e| format!("ledger append: {e}"))?;
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
        Err("design is NOT deadlock-free on this topology".into())
    }
}

/// Positional (non-flag) arguments, skipping every `--flag value` pair.
/// Only valid for subcommands whose flags all take a value.
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            out.push(args[i].as_str());
            i += 1;
        }
    }
    out
}

/// `ebda check-cert FILE`: the independent certificate checker. Walks a
/// run-ledger JSONL file (or a file of bare provenance documents) and
/// re-validates every record's evidence — certificate obligations or
/// witness cycle — without calling any prover.
fn cmd_check_cert(args: &[String]) -> Result<(), String> {
    let path = positionals(args)
        .first()
        .copied()
        .ok_or("missing ledger or provenance file")?
        .to_string();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let mut checked = 0usize;
    let mut failed = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
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
        return Err(format!("{path} holds no records"));
    }
    if failed > 0 {
        return Err(format!("{failed} record(s) failed the certificate check"));
    }
    Ok(())
}

/// `ebda ledger <list|show|diff>`: inspect append-only run ledgers.
fn cmd_ledger(args: &[String]) -> Result<(), String> {
    let Some(action) = args.first() else {
        return Err("missing ledger action (list, show, diff)".into());
    };
    // --json is a bare switch: strip it before positional extraction,
    // which assumes every flag takes a value.
    let json = args.iter().any(|a| a == "--json");
    let filtered: Vec<String> = args[1..]
        .iter()
        .filter(|a| *a != "--json")
        .cloned()
        .collect();
    let rest = positionals(&filtered);
    match action.as_str() {
        "list" => {
            let path = rest.first().ok_or("ledger list needs a FILE")?;
            if json {
                print!(
                    "{}",
                    ebda_obs::ledger::render_json(std::path::Path::new(path))?
                );
                return Ok(());
            }
            let records = ebda_obs::ledger::read(std::path::Path::new(path))?;
            for r in &records {
                println!("{}", r.summary());
            }
            println!("{} record(s) in {path}", records.len());
            Ok(())
        }
        "show" => {
            let path = rest.first().ok_or("ledger show needs a FILE")?;
            let hash = rest.get(1);
            let records = ebda_obs::ledger::read(std::path::Path::new(path))?;
            let mut shown = 0;
            for r in &records {
                if hash.is_none_or(|h| r.hash.starts_with(h)) {
                    println!("{}", r.to_line());
                    shown += 1;
                }
            }
            match (shown, hash) {
                (0, Some(h)) => Err(format!("no record matches hash {h}")),
                _ => Ok(()),
            }
        }
        "diff" => {
            let (Some(a), Some(b)) = (rest.first(), rest.get(1)) else {
                return Err("ledger diff needs two FILEs".into());
            };
            match ebda_obs::ledger::diff(std::path::Path::new(a), std::path::Path::new(b))? {
                None => {
                    let n = ebda_obs::ledger::read(std::path::Path::new(a))?.len();
                    println!("ledgers are byte-identical ({n} record(s))");
                    Ok(())
                }
                Some(delta) => Err(format!("ledgers differ: {delta}")),
            }
        }
        other => Err(format!(
            "unknown ledger action {other:?} (try list, show, diff)"
        )),
    }
}

/// `ebda coverage <report|diff|merge>`: inspect and combine design-space
/// coverage maps written by `--coverage-out` campaigns.
fn cmd_coverage(args: &[String]) -> Result<(), String> {
    let Some(action) = args.first() else {
        return Err("missing coverage action (report, diff, merge)".into());
    };
    let rest = positionals(&args[1..]);
    match action.as_str() {
        "report" => {
            let path = rest.first().ok_or("coverage report needs a FILE")?;
            let map = ebda_obs::CoverageMap::read_file(std::path::Path::new(path))?;
            print!("{}", map.report());
            Ok(())
        }
        "diff" => {
            let (Some(a), Some(b)) = (rest.first(), rest.get(1)) else {
                return Err("coverage diff needs two FILEs".into());
            };
            let left = ebda_obs::CoverageMap::read_file(std::path::Path::new(a))?;
            let right = ebda_obs::CoverageMap::read_file(std::path::Path::new(b))?;
            match left.diff(&right) {
                None => {
                    println!(
                        "coverage maps are identical ({} points, digest {})",
                        left.total_points(),
                        left.digest()
                    );
                    Ok(())
                }
                Some(delta) => Err(format!("coverage maps differ: {delta}")),
            }
        }
        "merge" => {
            let Some((out, inputs)) = rest.split_first() else {
                return Err("coverage merge needs OUT FILE...".into());
            };
            if inputs.is_empty() {
                return Err("coverage merge needs at least one input FILE".into());
            }
            let mut maps = inputs
                .iter()
                .map(|p| ebda_obs::CoverageMap::read_file(std::path::Path::new(p)));
            let mut merged = maps.next().expect("non-empty inputs")?;
            for map in maps {
                merged.merge(&map?);
            }
            merged.write_file(std::path::Path::new(out))?;
            println!(
                "merged {} map(s) into {out}: {} points, digest {}",
                inputs.len(),
                merged.total_points(),
                merged.digest()
            );
            Ok(())
        }
        other => Err(format!(
            "unknown coverage action {other:?} (try report, diff, merge)"
        )),
    }
}

/// `ebda explain HASH --ledger FILE`: render the proof narrative of one
/// recorded verdict.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let ledger = flag_value(args, "--ledger").ok_or("missing --ledger FILE")?;
    let hash = positionals(args)
        .first()
        .copied()
        .ok_or("missing HASH (see `ebda ledger list`)")?
        .to_string();
    let records = ebda_obs::ledger::read(std::path::Path::new(ledger))?;
    // Prefix match, latest record wins — hashes are content addresses, so
    // duplicates describe the same problem.
    let record = records
        .iter()
        .rev()
        .find(|r| r.hash.starts_with(&hash))
        .ok_or_else(|| format!("no record in {ledger} matches hash {hash}"))?;
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

fn cmd_certify(args: &[String]) -> Result<(), String> {
    let spec = flag_value(args, "--turns").ok_or("missing --turns \"A>B,C>D,...\"")?;
    let mut turns = TurnSet::new();
    let mut universe: Vec<Channel> = Vec::new();
    for token in spec.split(',').filter(|t| !t.trim().is_empty()) {
        let (a, b) = token
            .split_once('>')
            .ok_or_else(|| format!("turn {token:?} must look like X1+>Y1+"))?;
        let from = Channel::parse(a.trim()).map_err(|e| e.to_string())?;
        let to = Channel::parse(b.trim()).map_err(|e| e.to_string())?;
        if from == to {
            return Err(format!("turn {token:?} repeats one channel"));
        }
        for c in [from, to] {
            if !universe.contains(&c) {
                universe.push(c);
            }
        }
        turns.insert(Turn::new(from, to));
    }
    if turns.is_empty() {
        return Err("no turns given".into());
    }
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
        Err(e) => Err(format!(
            "not certifiable: {e} (this does not prove deadlock; EbDa certificates are sufficient, not necessary)"
        )),
    }
}

fn cmd_simulate(raw_args: &[String]) -> Result<(), String> {
    // The shared observability parser consumes --trace-out/--metrics-addr/
    // --metrics-linger (and their env fallbacks); everything else stays.
    let mut argv: Vec<String> = raw_args.to_vec();
    let mut obs = ebda::bench::trace::ObsOptions::parse(&mut argv);
    obs.activate();
    let args: &[String] = &argv;
    let seq = parse_design(args)?;
    let topo = topology(args, design_dims(&seq))?;
    let relation = TurnRouting::from_design("cli", &seq).map_err(|e| e.to_string())?;
    let mut cfg = SimConfig::default();
    if let Some(r) = flag_value(args, "--rate") {
        cfg.injection_rate = r.parse().map_err(|e| format!("bad rate: {e}"))?;
    }
    if let Some(t) = flag_value(args, "--traffic") {
        cfg.traffic = match t {
            "uniform" => TrafficPattern::Uniform,
            "transpose" => TrafficPattern::Transpose,
            "bitcomp" => TrafficPattern::BitComplement,
            other => return Err(format!("unknown traffic pattern {other:?}")),
        };
    }
    if let Some(p) = flag_value(args, "--policy") {
        cfg.buffer_policy = match p {
            "multi" => BufferPolicy::MultiPacket,
            "single" => BufferPolicy::SinglePacket,
            other => return Err(format!("unknown buffer policy {other:?}")),
        };
    }
    if let Some(s) = flag_value(args, "--switching") {
        cfg.switching = match s {
            "wh" => ebda::sim::config::Switching::Wormhole,
            "vct" => ebda::sim::config::Switching::VirtualCutThrough,
            "saf" => ebda::sim::config::Switching::StoreAndForward,
            other => return Err(format!("unknown switching {other:?}")),
        };
        if cfg.switching != ebda::sim::config::Switching::Wormhole {
            cfg.buffer_depth = cfg.buffer_depth.max(cfg.packet_length);
        }
    }
    if let Some(w) = flag_value(args, "--watchdog-window") {
        cfg.watchdog_window = w
            .parse()
            .map_err(|e| format!("bad --watchdog-window: {e}"))?;
    }
    if let Some(seed) = flag_value(args, "--seed") {
        cfg.seed = seed.parse().map_err(|e| format!("bad --seed: {e}"))?;
    }
    let result = match obs.recorder() {
        Some(mut rec) => {
            let result = ebda::sim::simulate_traced(&topo, &relation, &cfg, Some(&mut rec));
            if let Some(path) = &obs.trace {
                ebda::bench::trace::write_trace(&rec, path);
            }
            if let Some(path) = &obs.journey {
                ebda::bench::trace::write_journey(&rec, "ebda simulate", path);
            }
            result
        }
        None => simulate(&topo, &relation, &cfg),
    };
    if let Some(path) = flag_value(args, "--heatmap-out") {
        let csv = ebda::sim::channel_heatmap_csv(&topo, &relation, &cfg, &result);
        std::fs::write(path, csv).map_err(|e| format!("write heatmap {path}: {e}"))?;
        eprintln!("heatmap written to {path}");
    }
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
    obs.finish();
    Ok(())
}

fn cmd_monitor(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr").ok_or("missing --addr host:port")?;
    let once = args.iter().any(|a| a == "--once");
    // `--interval <secs>` is the watch mode: clear the terminal and
    // re-render the snapshot in place each round, like `watch(1)`.
    // `--interval-ms` keeps the original append-only polling (and wins
    // on cadence when both are given).
    let watch_secs: Option<u64> = flag_value(args, "--interval")
        .map(|v| v.parse().map_err(|e| format!("bad --interval: {e}")))
        .transpose()?;
    let interval_ms: u64 = match flag_value(args, "--interval-ms") {
        Some(v) => v.parse().map_err(|e| format!("bad --interval-ms: {e}"))?,
        None => watch_secs.map_or(2_000, |s| s.max(1) * 1_000),
    };
    let ledger = flag_value(args, "--ledger");
    let in_place = watch_secs.is_some() && !once;
    loop {
        // A dead endpoint is an expected condition, not a parse bug:
        // report it as one clean line instead of the raw io error.
        let body = ebda_obs::http_get(addr, "/metrics")
            .map_err(|_| format!("endpoint unreachable: {addr}"))?;
        let samples = ebda_obs::metrics::parse_exposition(&body)
            .map_err(|e| format!("malformed exposition from {addr}: {e}"))?;
        if in_place {
            print!("\x1b[2J\x1b[H");
        }
        println!("{}", monitor_snapshot(addr, &samples));
        if let Some(path) = ledger {
            match ebda_obs::ledger::tail(std::path::Path::new(path), 5) {
                Ok(records) if records.is_empty() => {
                    println!("recent verdicts ({path}): none yet");
                }
                Ok(records) => {
                    println!("recent verdicts ({path}):");
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
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("missing profile file (written by --profile-out / EBDA_PROFILE_OUT)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = ebda_obs::json::Value::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    // A --profile-out file is a Chrome trace with the snapshot spliced in
    // under "ebdaProfile"; a bare snapshot document works too.
    let snap = ebda_obs::ProfSnapshot::from_value(doc.get("ebdaProfile").unwrap_or(&doc))
        .map_err(|e| format!("{path}: {e}"))?;
    if args.iter().any(|a| a == "--counters") {
        print!("{}", snap.counters_text());
    } else if args.iter().any(|a| a == "--flame") {
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
    use ebda_obs::metrics::quantile_from_buckets;
    use std::fmt::Write as _;
    let value =
        |name: &str| -> Option<f64> { samples.iter().find(|s| s.name == name).map(|s| s.value) };
    let count = |name: &str| value(name).unwrap_or(0.0) as u64;
    let mut out = String::new();
    let _ = writeln!(out, "=== {addr} ({} samples) ===", samples.len());
    if value("ebda_sim_runs_total").is_some() {
        let _ = writeln!(
            out,
            "sim    : {} runs, {} injected, {} delivered, {} deadlocks, {} credit stalls",
            count("ebda_sim_runs_total"),
            count("ebda_sim_packets_injected_total"),
            count("ebda_sim_packets_delivered_total"),
            count("ebda_sim_deadlocks_total"),
            count("ebda_sim_credit_stalls_total"),
        );
    }
    let latency_buckets: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == "ebda_sim_packet_latency_cycles_bucket")
        .filter_map(|s| {
            let le = s.label("le")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, s.value))
        })
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
    if value("ebda_sweep_points_total").is_some() {
        let _ = writeln!(out, "sweep  : {} points", count("ebda_sweep_points_total"));
    }
    if value("ebda_par_jobs_total").is_some() {
        let busy = value("ebda_par_worker_busy_ns_total").unwrap_or(0.0);
        let idle = value("ebda_par_worker_idle_ns_total").unwrap_or(0.0);
        let util = if busy + idle > 0.0 {
            100.0 * busy / (busy + idle)
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "par    : {} jobs, {} tasks, queue depth {}, workers {util:.0}% busy",
            count("ebda_par_jobs_total"),
            count("ebda_par_tasks_total"),
            count("ebda_par_queue_depth"),
        );
    }
    if value("ebda_watchdog_trips_total").is_some() {
        let _ = writeln!(
            out,
            "watchdog: {} trips, {} suspected cycles (last len {})",
            count("ebda_watchdog_trips_total"),
            count("ebda_watchdog_suspected_cycles_total"),
            count("ebda_watchdog_suspected_cycle_len"),
        );
    }
    if value("ebda_oracle_artifacts_checked_total").is_some() {
        let _ = writeln!(
            out,
            "oracle : {} artifacts checked, {} deadlocking, {} disagreements, {} shrunk",
            count("ebda_oracle_artifacts_checked_total"),
            count("ebda_oracle_deadlocking_artifacts_total"),
            count("ebda_oracle_disagreements_total"),
            count("ebda_oracle_artifacts_shrunk_total"),
        );
    }
    let mut hot: Vec<&ebda_obs::metrics::Sample> = samples
        .iter()
        .filter(|s| s.name == "ebda_sim_channel_utilization")
        .collect();
    hot.sort_by(|a, b| b.value.partial_cmp(&a.value).expect("finite gauges"));
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
    let phases = samples
        .iter()
        .filter(|s| s.name == "ebda_prof_phase_calls_total")
        .count();
    if phases > 0 {
        let _ = writeln!(out, "profile: {phases} phases");
    }
    out.trim_end().to_string()
}

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
        assert!(result.is_err());
        assert!(result.unwrap_err().contains("not certifiable"));
    }

    // One test for everything touching the process-global metrics
    // registry and a live endpoint, to avoid parallel-runner interference.
    #[test]
    fn monitor_scrapes_and_renders_a_live_endpoint() {
        let reg = ebda_obs::metrics::global();
        reg.counter_add("ebda_sim_runs_total", &[], 2);
        reg.counter_add("ebda_sim_packets_injected_total", &[], 10);
        reg.observe("ebda_sim_packet_latency_cycles", &[], 12);
        reg.counter_add("ebda_par_jobs_total", &[], 3);
        reg.counter_add("ebda_par_tasks_total", &[], 24);
        reg.counter_add("ebda_par_worker_busy_ns_total", &[], 900);
        reg.counter_add("ebda_par_worker_idle_ns_total", &[], 100);
        reg.counter_add("ebda_watchdog_trips_total", &[], 1);
        reg.counter_add("ebda_watchdog_suspected_cycles_total", &[], 1);
        reg.gauge_set("ebda_watchdog_suspected_cycle_len", &[], 4.0);
        for phase in ["sim/run", "sim/run/route"] {
            reg.counter_add("ebda_prof_phase_calls_total", &[("phase", phase.into())], 1);
        }
        reg.gauge_set(
            "ebda_sim_channel_utilization",
            &[
                ("node", "3".into()),
                ("dim", "0".into()),
                ("dir", "+".into()),
                ("vc", "0".into()),
            ],
            0.25,
        );
        let server = ebda_obs::MetricsServer::serve("127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        run(&s(&["monitor", "--addr", &addr, "--once"])).unwrap();
        let body = ebda_obs::http_get(&addr, "/metrics").unwrap();
        let samples = ebda_obs::metrics::parse_exposition(&body).unwrap();
        let snap = monitor_snapshot(&addr, &samples);
        assert!(snap.contains("sim    : 2 runs"), "{snap}");
        assert!(snap.contains("latency: p50 12"), "{snap}");
        assert!(
            snap.contains("par    : 3 jobs, 24 tasks, queue depth 0, workers 90% busy"),
            "{snap}"
        );
        assert!(
            snap.contains("watchdog: 1 trips, 1 suspected cycles (last len 4)"),
            "{snap}"
        );
        assert!(
            snap.contains("hottest channels: n3 d0+ vc0 0.250"),
            "{snap}"
        );
        assert!(snap.contains("profile: 2 phases"), "{snap}");
        server.shutdown();
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
        let summary = ebda_obs::chrome::validate(&text).expect("valid Trace Event Format");
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
        ebda_obs::chrome::validate(&text).expect("profile is a valid Chrome trace");
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
        assert_eq!(err, format!("endpoint unreachable: {addr}"));
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
        assert_eq!(merged.hits("design_bin", "d2.r4.w0.v1.tlo.free"), 2);
        assert_eq!(merged.hits("gfp_pair", "X1+>Y1+"), 1);
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
        assert!(r.unwrap_err().contains("bad --interval"));
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
        assert!(err.contains("failed the certificate check"), "{err}");
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
        assert_eq!(parse_vcs(&s(&["--vcs", "3,2,3"])).unwrap(), vec![3, 2, 3]);
    }
}
