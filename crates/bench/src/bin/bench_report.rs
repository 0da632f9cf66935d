//! Reproducible performance measurements for the bench trajectory
//! (`BENCH_*.json` at the repository root), plus the continuous
//! perf-regression gate CI runs on every push.
//!
//! Usage: `cargo run --release -p ebda-bench --bin bench_report -- \
//!            [--label NAME] [--out FILE] \
//!            [--baseline BENCH_N.json [--gate RATIO]] [--inject-regression]`
//!
//! Runs a fixed set of workloads — the simulator hot path, the brute-force
//! deadlock searcher, the shrinker, a full sweep (16 points x 3
//! replicates) and an oracle campaign — and writes one JSON document with,
//! per workload, the wall-clock nanoseconds **and** the deterministic
//! work-unit counters behind them (cycles simulated, GFP sweeps, shrink
//! evaluations, CDG edges visited, ...), captured by one dedicated run
//! under the [`ebda_obs::prof`] self-profiler. See `docs/PERFORMANCE.md`
//! for the schema and the gate semantics.
//!
//! `--baseline` compares the current tree against a previous report (a
//! bare report or a `BENCH_N.json` before/after document — the `after`
//! side is used). The gate trips — exit code 1 — when any shared
//! work-unit counter grew beyond `baseline * RATIO` (default 1.25).
//! **Only the deterministic counters gate**; wall-clock deltas are
//! reported informationally, because CI boxes are noisy but algorithmic
//! work is not. `--inject-regression` doubles every current counter so
//! CI can prove the gate actually trips.
//!
//! Microbenchmarks go through the auto-scaling [`bench`] loop below; the
//! two macro workloads (sweep, oracle) are timed once, wall-clock,
//! because they run seconds not microseconds.
//! The work-unit capture never goes through the harness — counters come
//! from exactly one profiled execution per workload, so they are
//! byte-identical at every `EBDA_THREADS` value and on every host.

use ebda_bench::args::{Args, CliError};
use ebda_cdg::dally::{design_universe, infer_vcs};
use ebda_cdg::topology::Topology as CdgTopology;
use ebda_obs::json::Value;
use ebda_obs::ledger::git_rev;
use ebda_oracle::artifact::{Artifact, ArtifactKind};
use ebda_oracle::brute;
use ebda_oracle::differential::{run_campaign, CampaignConfig};
use ebda_oracle::shrink::{shrink, DEFAULT_SHRINK_BUDGET};
use ebda_routing::classic::DimensionOrder;
use ebda_routing::Topology;
use noc_sim::sweep::{latency_curve, replicate};
use noc_sim::{simulate, SimConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Renders `123.4 us` style, choosing a readable unit.
fn human(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Times `f` and returns the mean nanoseconds per iteration: one untimed
/// warm-up call sizes the iteration count to a 200 ms budget, split into
/// four batches so the printed best-batch figure filters scheduler
/// noise. Order-of-magnitude costs, not microbenchmark truth.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let est = t0.elapsed().max(Duration::from_nanos(100));
    let total_iters = (Duration::from_millis(200).as_nanos() / est.as_nanos()).clamp(4, 100_000);
    let batches = 4u64;
    let batch = (total_iters as u64 / batches).max(1);
    let mut total_ns = 0u128;
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let ns = t.elapsed().as_nanos();
        total_ns += ns;
        best = best.min(ns as f64 / batch as f64);
    }
    let iters = batch * batches;
    let mean_ns = total_ns as f64 / iters as f64;
    println!(
        "{name:<44} {:>12}/iter (best {:>12}, {iters} iters)",
        human(mean_ns),
        human(best),
    );
    mean_ns
}

/// One recorded workload: its timing plus the deterministic work-unit
/// counters (`"phase:unit"` -> count) from the dedicated profiled run.
struct Entry {
    name: &'static str,
    /// Mean nanoseconds per iteration (microbench) or total wall-clock
    /// nanoseconds (macro workload).
    ns: f64,
    /// How the number was obtained: `"harness"` or `"wallclock"`.
    mode: &'static str,
    /// Deterministic work-unit counters, flattened as `phase:unit`.
    work: BTreeMap<String, u64>,
}

fn sweep_base() -> SimConfig {
    SimConfig {
        warmup: 100,
        measurement: 400,
        drain: 600,
        deadlock_threshold: 400,
        collect_latencies: false,
        ..SimConfig::default()
    }
}

/// The 16-point sweep the acceptance criteria name: 16 rates, each
/// replicated 3 times, on an 8x8 mesh under XY routing.
fn sweep_workload() -> f64 {
    let topo = Topology::mesh(&[8, 8]);
    let xy = DimensionOrder::xy();
    let base = sweep_base();
    let rates: Vec<f64> = (1..=16).map(|i| 0.005 * i as f64).collect();
    let t0 = Instant::now();
    let curve = latency_curve(&topo, &xy, &base, &rates);
    assert_eq!(curve.len(), 16);
    for &rate in &rates[..3] {
        let cfg = SimConfig {
            injection_rate: rate,
            ..base.clone()
        };
        let rep = replicate(&topo, &xy, &cfg, 3);
        assert_eq!(rep.replicates, 3);
    }
    t0.elapsed().as_nanos() as f64
}

fn oracle_workload() -> f64 {
    let cfg = CampaignConfig {
        seed: 7,
        budget: Duration::ZERO,
        min_configs: 150,
        max_configs: 150,
        max_nodes: 25,
        ..CampaignConfig::default()
    };
    let t0 = Instant::now();
    let report = run_campaign(&cfg);
    assert!(report.is_clean(), "{report}");
    t0.elapsed().as_nanos() as f64
}

fn torus_rings() -> Artifact {
    Artifact {
        id: 0,
        kind: ArtifactKind::ChannelOrdering,
        radix: vec![4, 4],
        wrap: vec![true, true],
        vcs: vec![1, 1],
        universe: ebda_core::parse_channels("X+ X- Y+ Y-").unwrap(),
        turns: ebda_core::TurnSet::new(),
        design: None,
    }
}

/// Runs `f` exactly once under a freshly-reset profiler and returns the
/// work-unit counters it recorded, flattened as `phase:unit`. The
/// flattened tree is deterministic: the same tree at every thread count
/// and on every host, which is what makes it gateable.
fn counted_run(f: impl FnOnce()) -> BTreeMap<String, u64> {
    ebda_obs::prof::reset();
    f();
    let snap = ebda_obs::prof::snapshot();
    let mut work = BTreeMap::new();
    for (path, stat) in &snap.phases {
        for (unit, &v) in &stat.work {
            work.insert(format!("{path}:{unit}"), v);
        }
    }
    work
}

/// Baseline measurements: workload name -> (wall ns, work counters).
type BaselineMap = BTreeMap<String, (f64, BTreeMap<String, u64>)>;

/// The baseline measurements. Accepts both a bare report and a
/// `BENCH_N.json` before/after document (the `after` side is the
/// baseline — it describes the tree that was committed).
fn parse_baseline(path: &str) -> Result<BaselineMap, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let report = doc.get("after").unwrap_or(&doc);
    let measurements = report
        .get("measurements")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no measurements array"))?;
    let mut out = BTreeMap::new();
    for m in measurements {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: measurement without a name"))?;
        let ns = m.get("ns").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let mut work = BTreeMap::new();
        if let Some(Value::Obj(map)) = m.get("work") {
            for (k, v) in map {
                let v = v
                    .as_u64()
                    .ok_or_else(|| format!("{path}: {name} work {k} is not a count"))?;
                work.insert(k.clone(), v);
            }
        }
        out.insert(name.to_string(), (ns, work));
    }
    Ok(out)
}

/// Applies the gate: every work counter shared with the baseline must
/// stay within `baseline * gate`. Returns the violations; prints the
/// full comparison (counters gating, wall-clock informational).
fn apply_gate(entries: &[Entry], baseline: &BaselineMap, gate: f64) -> Vec<String> {
    let mut violations = Vec::new();
    println!("\nregression gate (work-unit counters, limit {gate}x):");
    for e in entries {
        let Some((base_ns, base_work)) = baseline.get(e.name) else {
            println!("  {:<28} not in baseline (skipped)", e.name);
            continue;
        };
        // Wall clock is informational only: shared CI boxes are noisy.
        let wall = if base_ns.is_finite() && *base_ns > 0.0 {
            format!(
                "wall {:+.1}% (informational)",
                100.0 * (e.ns / base_ns - 1.0)
            )
        } else {
            "wall n/a".to_string()
        };
        println!("  {:<28} {wall}", e.name);
        for (key, &cur) in &e.work {
            let Some(&base) = base_work.get(key) else {
                println!("    {key:<40} {cur:>14} (new counter, not gated)");
                continue;
            };
            let limit = (base as f64 * gate).ceil() as u64;
            let verdict = if cur > limit { "REGRESSION" } else { "ok" };
            println!("    {key:<40} {cur:>14} vs {base:>14} (limit {limit}) {verdict}");
            if cur > limit {
                violations.push(format!(
                    "{}: {key} grew {base} -> {cur} (limit {limit} at {gate}x)",
                    e.name
                ));
            }
        }
        for key in base_work.keys().filter(|&key| !e.work.contains_key(key)) {
            let msg = format!(
                "{}: counter {key} disappeared from the current tree",
                e.name
            );
            println!("    {msg}");
            violations.push(msg);
        }
    }
    violations
}

fn main() -> ExitCode {
    match run(Args::new(std::env::args().skip(1).collect())) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            match e {
                CliError::Usage(_) => ExitCode::from(2),
                CliError::Failed(_) => ExitCode::FAILURE,
            }
        }
    }
}

/// Measures, gates and writes the report; `Ok(false)` is a tripped gate.
fn run(mut args: Args) -> Result<bool, CliError> {
    let label: String = args.value("--label")?.unwrap_or_else(|| "run".into());
    let out: Option<std::path::PathBuf> = args.value("--out")?;
    let baseline_path: Option<String> = args.value("--baseline")?;
    let gate = args
        .value_with("--gate", |raw| {
            // Below 1.0 the gate rejects identical trees.
            raw.parse::<f64>()
                .ok()
                .filter(|g| *g >= 1.0)
                .ok_or_else(|| "needs a ratio of at least 1.0, like 1.25".to_string())
        })?
        .unwrap_or(1.25);
    let inject = args.switch("--inject-regression");
    args.finish()?;
    let baseline = baseline_path
        .as_deref()
        .map(parse_baseline)
        .transpose()
        .map_err(|e| CliError::Failed(format!("--baseline: {e}")))?;

    // Shared workload fixtures.
    let topo = Topology::mesh(&[8, 8]);
    let xy = DimensionOrder::xy();
    let cfg = SimConfig {
        injection_rate: 0.05,
        ..sweep_base()
    };
    let radix = vec![6usize, 6];
    let torus = CdgTopology::torus(&radix);
    let seq = ebda_core::catalog::torus_dateline(&radix);
    let universe = design_universe(&seq);
    let vcs = infer_vcs(&universe, 2);
    let turns = ebda_core::extract_turns(&seq).unwrap().into_turn_set();
    let mesh = CdgTopology::mesh(&[5, 5]);
    let u2 = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
    let mut all_turns = ebda_core::TurnSet::new();
    for &a in &u2 {
        for &b in &u2 {
            if a != b {
                all_turns.insert(ebda_core::Turn::new(a, b));
            }
        }
    }
    let start = torus_rings();
    let deadlocks = |a: &Artifact| {
        !brute::search(&a.topology(), &a.vcs, &a.universe, &a.turns).is_deadlock_free()
    };
    // Work-unit capture: one profiled execution per workload, before any
    // timing, then the profiler goes back off so the timed passes run the
    // same disabled fast path the baseline did. The brute searcher is a
    // leaf (its report carries its own deterministic work), so its
    // counters come straight from the returned report.
    ebda_obs::prof::set_enabled(true);
    let work_engine = counted_run(|| {
        simulate(&topo, &xy, &cfg);
    });
    let brute_report = brute::search(&torus, &vcs, &universe, &turns);
    assert!(brute_report.is_deadlock_free());
    let work_brute_torus = BTreeMap::from([
        ("brute:gfp_sweeps".to_string(), brute_report.sweeps as u64),
        ("brute:wait_pairs".to_string(), brute_report.pairs as u64),
    ]);
    let brute_report = brute::search(&mesh, &[1, 1], &u2, &all_turns);
    assert!(!brute_report.is_deadlock_free());
    let work_brute_mesh = BTreeMap::from([
        ("brute:gfp_sweeps".to_string(), brute_report.sweeps as u64),
        ("brute:wait_pairs".to_string(), brute_report.pairs as u64),
        ("brute:surviving".to_string(), brute_report.surviving as u64),
    ]);
    let work_shrink = counted_run(|| {
        let small = shrink(&start, deadlocks, DEFAULT_SHRINK_BUDGET);
        assert_eq!(small.universe.len(), 1);
    });
    let work_sweep = counted_run(|| {
        sweep_workload();
    });
    let work_oracle = counted_run(|| {
        oracle_workload();
    });
    ebda_obs::prof::set_enabled(false);
    ebda_obs::prof::reset();

    let mut entries: Vec<Entry> = Vec::new();

    // Engine hot path: one mid-load simulation on an 8x8 mesh.
    let ns = bench("engine/sim-8x8-rate05", || simulate(&topo, &xy, &cfg));
    entries.push(Entry {
        name: "engine/sim-8x8-rate05",
        ns,
        mode: "harness",
        work: work_engine,
    });

    // Brute-force searcher: the torus-dateline design on a 6x6 torus (the
    // largest structured search the tests exercise) and the all-turns
    // mesh (deadlocking, so the fixed point stays populated).
    let ns = bench("brute/torus-dateline-6x6", || {
        let r = brute::search(&torus, &vcs, &universe, &turns);
        assert!(r.is_deadlock_free());
        r.sweeps
    });
    entries.push(Entry {
        name: "brute/torus-dateline-6x6",
        ns,
        mode: "harness",
        work: work_brute_torus,
    });

    let ns = bench("brute/all-turns-mesh-5x5", || {
        let r = brute::search(&mesh, &[1, 1], &u2, &all_turns);
        assert!(!r.is_deadlock_free());
        r.surviving
    });
    entries.push(Entry {
        name: "brute/all-turns-mesh-5x5",
        ns,
        mode: "harness",
        work: work_brute_mesh,
    });

    // Shrinker: minimize the classic torus-rings counterexample.
    let ns = bench("shrink/torus-rings", || {
        let small = shrink(&start, deadlocks, DEFAULT_SHRINK_BUDGET);
        assert_eq!(small.universe.len(), 1);
    });
    entries.push(Entry {
        name: "shrink/torus-rings",
        ns,
        mode: "harness",
        work: work_shrink,
    });

    // Macro workloads, timed once.
    let ns = sweep_workload();
    println!(
        "{:<44} {:>12} wall-clock",
        "sweep/16pt-x3rep-8x8",
        human(ns)
    );
    entries.push(Entry {
        name: "sweep/16pt-x3rep-8x8",
        ns,
        mode: "wallclock",
        work: work_sweep,
    });
    let ns = oracle_workload();
    println!("{:<44} {:>12} wall-clock", "oracle/campaign-150", human(ns));
    entries.push(Entry {
        name: "oracle/campaign-150",
        ns,
        mode: "wallclock",
        work: work_oracle,
    });

    if inject {
        // CI's proof that the gate is live: a synthetic 2x work blow-up
        // on every counter must trip any gate below 2.0.
        eprintln!("--inject-regression: doubling every work-unit counter");
        for e in &mut entries {
            for v in e.work.values_mut() {
                *v *= 2;
            }
        }
    }

    // The gate, when a baseline was given.
    let violations = baseline
        .as_ref()
        .map_or_else(Vec::new, |baseline| apply_gate(&entries, baseline, gate));

    // Render the JSON document.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"label\": \"{label}\",");
    let _ = writeln!(json, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(
        json,
        "  \"threads_env\": \"{}\",",
        std::env::var("EBDA_THREADS").unwrap_or_default()
    );
    let _ = writeln!(json, "  \"threads_resolved\": {},", ebda_par::threads());
    let _ = writeln!(
        json,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if let Some(path) = &baseline_path {
        let _ = writeln!(json, "  \"gate\": {{");
        let _ = writeln!(json, "    \"baseline\": \"{path}\",");
        let _ = writeln!(json, "    \"ratio\": {gate},");
        let _ = writeln!(json, "    \"passed\": {},", violations.is_empty());
        let _ = writeln!(json, "    \"violations\": [");
        for (i, v) in violations.iter().enumerate() {
            let _ = writeln!(
                json,
                "      \"{}\"{}",
                v.replace('"', "'"),
                if i + 1 < violations.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "    ]");
        let _ = writeln!(json, "  }},");
    }
    let _ = writeln!(json, "  \"measurements\": [");
    for (i, e) in entries.iter().enumerate() {
        let work: Vec<String> = e
            .work
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ns\": {:.0}, \"mode\": \"{}\", \"work\": {{{}}}}}{}",
            e.name,
            e.ns,
            e.mode,
            work.join(", "),
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    match out {
        Some(path) => {
            ebda_bench::trace::write_file("report", &path, &json)?;
            eprintln!("bench report written to {}", path.display());
        }
        None => print!("{json}"),
    }

    if !violations.is_empty() {
        eprintln!("\nperf gate FAILED ({} violations):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
    }
    Ok(violations.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something_positive() {
        let mean = bench("bench/self-test", || {
            (0..100u64).map(black_box).sum::<u64>()
        });
        assert!(mean > 0.0);
    }

    #[test]
    fn human_units() {
        assert_eq!(human(50.0), "50 ns");
        assert_eq!(human(2_500.0), "2.50 us");
        assert_eq!(human(3_200_000.0), "3.20 ms");
        assert_eq!(human(1.5e9), "1.50 s");
    }
}
