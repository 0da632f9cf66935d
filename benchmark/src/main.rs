//! `bench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! bench [run] --workload W [--seed N] [--seconds S] [--trace 0|1]
//! bench all   [--seed N] [--seconds S]      every workload, every metric
//! bench aa    [--sets 2] [--runs 5] [...]   same build against itself
//! bench spec  [--seconds S]                 prints BENCHMARK.json
//! ```
//!
//! `run` is what the driver calls (the subcommand may be left out); its
//! last line of output is one JSON object. See README.md for the
//! protocol and for why each workload exists.

mod harness;
mod spec;
mod trace;
mod workloads;

use ebda_obs::json::{escape, number, Value};
use harness::{measure, Workload, DEFAULT_SEED, MIN_REPS};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Repetitions of a traced run (and of its untraced base line).
const TRACED_REPS: usize = 10;

/// What the driver's `--seconds` is when nobody passes it; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The benchmark's scratch directory, inside its own package.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 2,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            out.trace = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.to_string()),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--sets" => out.sets = value.parse().map_err(|e| bad(&e))?,
            "--runs" => out.runs = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// One run's result in the shape the driver reads.
struct Report {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Diagnostics printed but not part of the result line.
    notes: Vec<String>,
}

impl Report {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    escape(name),
                    number(*value),
                    escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn end_to_end<W: Workload>(w: &W, a: &Args) -> Report {
    let r = measure(w, a.seed, a.seconds, MIN_REPS);
    // The raw timings behind the summary, for anyone who doubts it.
    let path = out_dir().join(format!("{}.reps.csv", w.name()));
    let mut csv = String::from("rep,setup_s,wall_s,cpu_s\n");
    for (i, (setup, wall, cpu)) in r.raw.iter().enumerate() {
        csv.push_str(&format!("{i},{setup},{wall},{cpu}\n"));
    }
    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
    std::fs::write(&path, csv).expect("write the raw timings");
    let values = [
        r.setup.min,
        r.wall.min,
        r.cpu_s,
        r.ops_per_s(),
        r.peak_rss_mb,
    ];
    Report {
        attempted: r.attempted,
        failed: r.failed,
        messages: r.messages,
        metrics: spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        notes: vec![
            format!("reps {}", r.reps),
            format!("ops_per_rep {}", r.ops_per_rep),
            format!("digest {:#018x}", r.digest),
            format!("rep_median_s {}", r.wall.median),
            format!("rep_p90_s {}", r.wall.p90),
            format!("slow_rep_share {}", r.wall.slow_share),
            format!("setup_median_s {}", r.setup.median),
            format!("raw {}", path.display()),
        ],
    }
}

fn traced<W: Workload>(w: &W, a: &Args) -> Report {
    let mut r = trace::traced_run(w, a.seed, TRACED_REPS);
    w.probes(&mut r.metrics);
    let path = out_dir().join(format!("{}.trace.json", w.name()));
    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
    std::fs::write(&path, r.trace.to_chrome_json(w.name())).expect("write the trace file");
    Report {
        attempted: r.attempted,
        failed: r.failed,
        messages: r.messages,
        metrics: spec::PER_LAYER
            .iter()
            .map(|&name| (name, r.metrics.get(name), spec::unit_of(name)))
            .collect(),
        notes: vec![
            format!("reps {TRACED_REPS}"),
            format!("spans {}", r.trace.spans.len()),
            format!("trace {}", path.display()),
        ],
    }
}

fn run_workload(a: &Args) -> Result<Report, String> {
    fn go<W: Workload>(w: W, a: &Args) -> Report {
        if a.trace {
            traced(&w, a)
        } else {
            end_to_end(&w, a)
        }
    }
    let name = a.workload.as_deref().ok_or("missing --workload")?;
    Ok(match name {
        "verify-scale" => go(workloads::verify_scale::VerifyScale, a),
        "campaign" => go(workloads::campaign::Campaign::new(a.seed), a),
        "enumerate" => go(workloads::enumerate::Enumerate::new(a.seed), a),
        "sim-lowload" => go(workloads::sim::Sim::lowload(a.seed), a),
        "sim-saturation" => go(workloads::sim::Sim::saturation(a.seed), a),
        _ => {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {name:?} (known: {})",
                known.join(", ")
            ));
        }
    })
}

fn cmd_run(a: &Args) -> Result<ExitCode, String> {
    // Every workload is single-threaded except where it passes a thread
    // count itself; a stray EBDA_THREADS must not change what is measured.
    ebda_par::set_threads(1);
    // The campaigns stamp their ledgers with `git rev-parse`; keep git
    // from searching for a repository above the checkout.
    if let Some(above) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(|d| d.parent())
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", above);
    }
    let report = run_workload(a)?;
    println!(
        "workload {} seed {} trace {}",
        a.workload.as_deref().unwrap_or_default(),
        a.seed,
        u8::from(a.trace)
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.messages {
        println!("FAILED: {m}");
    }
    println!("{}", report.result_line());
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs `bench run` for one workload in a child process and returns its
/// standard output.
fn child_run(workload: &str, seed: u64, seconds: f64, echo: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn bench run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!(
            "bench run --workload {workload} exited with {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(stdout)
}

fn cmd_all(a: &Args) -> Result<ExitCode, String> {
    for (workload, _) in spec::WORKLOADS {
        child_run(workload, a.seed, a.seconds, true)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The end-to-end metric values on the last line of a run's output.
fn parse_result(stdout: &str) -> Result<Vec<f64>, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let doc = Value::parse(line)?;
    let metrics = doc.get("metrics").ok_or("no metrics")?;
    spec::END_TO_END
        .iter()
        .map(|m| {
            metrics
                .get(m.name)
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("no {} in {line}", m.name))
        })
        .collect()
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method).
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    harness::percentile(&s, 0.5)
}

/// `bench aa`: runs the same build `sets` times over, interleaved, each
/// run of a set on another seed, and compares the sets as the driver
/// compares two commits: the medians must agree within the metric's
/// bound, and each set's quartile distance over its median must stay
/// within it too (set-up time excepted, as in the driver). Sets of one
/// build differ only by noise, so a failure here means the benchmark
/// cannot resolve its own bounds on this host.
fn cmd_aa(a: &Args) -> Result<ExitCode, String> {
    if a.sets < 2 || a.runs < 2 {
        return Err("aa needs --sets >= 2 and --runs >= 2".into());
    }
    // sets[set][workload][metric] = one value per run
    let mut sets =
        vec![vec![vec![Vec::new(); spec::END_TO_END.len()]; spec::WORKLOADS.len()]; a.sets];
    for run in 0..a.runs {
        for (s, set) in sets.iter_mut().enumerate() {
            for ((workload, _), values) in spec::WORKLOADS.iter().zip(set) {
                let stdout = child_run(workload, a.seed + run as u64, a.seconds, false)?;
                for (metric, v) in values.iter_mut().zip(parse_result(&stdout)?) {
                    metric.push(v);
                }
                eprintln!("aa: run {run} set {s} {workload} done");
            }
        }
    }
    let mut all_ok = true;
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "median[0]", "median[last]", "diff", "spread", "bound"
    );
    for (w, (workload, _)) in spec::WORKLOADS.iter().enumerate() {
        for (m, metric) in spec::END_TO_END.iter().enumerate() {
            let first = median(&sets[0][w][m]);
            let last = median(&sets[a.sets - 1][w][m]);
            let diff = (last - first).abs() / first;
            let spread = sets
                .iter()
                .map(|set| {
                    let (q1, q3) = quartiles(&set[w][m]);
                    (q3 - q1) / median(&set[w][m])
                })
                .fold(0.0, f64::max);
            let ok = diff <= metric.bound && (spread <= metric.bound || metric.name == "setup_s");
            all_ok &= ok;
            println!(
                "{workload:<15} {:<12} {first:>14.6} {last:>14.6} {:>7.2}% {:>7.2}% {:>5.0}%{}",
                metric.name,
                diff * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                if ok { "" } else { "  EXCEEDS BOUND" }
            );
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = parse_args(rest).and_then(|a| match cmd {
        "run" => cmd_run(&a),
        "all" => cmd_all(&a),
        "aa" => cmd_aa(&a),
        "spec" => {
            print!("{}", spec::benchmark_json(a.seconds as u64));
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?} (run, all, aa, spec)")),
    });
    result.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let r = Report {
            attempted: 10,
            failed: 0,
            messages: vec![],
            metrics: vec![("setup_s", 0.25, "s"), ("wall_s", 1.5, "s")],
            notes: vec![],
        };
        let doc = Value::parse(&r.result_line()).unwrap();
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(10));
        assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
        let m = doc.get("metrics").unwrap();
        let wall = m.get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        assert!(r.result_line().starts_with("{\"correct\": true,"));
        // The values a run printed are the values `aa` reads back.
        let line = format!(
            "noise\n{{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{{}}}}}",
            spec::END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| format!("\"{}\": {{\"value\": {i}.5, \"unit\": \"x\"}}", m.name))
                .collect::<Vec<_>>()
                .join(", ")
        );
        assert_eq!(parse_result(&line).unwrap(), [0.5, 1.5, 2.5, 3.5, 4.5]);
    }

    #[test]
    fn flags_parse_in_the_drivers_form() {
        let args: Vec<String> = "--workload campaign --seed 11 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&args).unwrap();
        assert_eq!(a.workload.as_deref(), Some("campaign"));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 3.0, true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
        assert!(parse_args(&["--bogus".into(), "1".into()]).is_err());
    }
}
