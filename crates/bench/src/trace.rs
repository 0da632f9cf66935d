//! Shared `--trace-out` / `EBDA_TRACE` wiring for the experiment binaries.
//!
//! Every simulation binary accepts `--trace-out <path>` (or the
//! `EBDA_TRACE` environment variable as a fallback) and, when set, runs
//! with a flight recorder attached and writes the trace there on exit:
//! `.csv` paths get the event log as CSV plus a `<stem>.samples.csv`
//! sibling with the time series; any other extension gets the recorder's
//! JSON document (meta + totals + events + samples) and nothing else.
//! Commands that aggregate many runs have no single event log and write
//! the [`write_profile`] document to the trace path instead
//! ([`ObsOptions::activate_aggregate`]).

use ebda_obs::{JourneyConfig, MetricsServer, Recorder, RecorderConfig, TraceBuilder};
use std::path::{Path, PathBuf};

/// Unified observability options shared by every binary: trace output
/// (`--trace-out <path>`, env `EBDA_TRACE`), packet-journey export
/// (`--journey-out <path>` / `--journey-sample-rate <p>`, env
/// `EBDA_JOURNEY_OUT` / `EBDA_JOURNEY_SAMPLE_RATE`), live metrics
/// endpoint (`--metrics-addr <host:port>`, env `EBDA_METRICS_ADDR`),
/// `--metrics-linger <secs>` (keep serving that long after the work is
/// done, so external scrapers can collect the final state), the
/// self-profiler (`--profile-out <path>`, env `EBDA_PROFILE_OUT`) and
/// the worker-thread count (`--threads N`, env `EBDA_THREADS`, default
/// hardware parallelism).
///
/// Typical binary shape:
///
/// ```no_run
/// let mut args: Vec<String> = std::env::args().skip(1).collect();
/// let mut obs = ebda_bench::trace::ObsOptions::parse(&mut args);
/// obs.activate();
/// // ... the actual work ...
/// obs.finish();
/// ```
#[derive(Debug)]
pub struct ObsOptions {
    /// Where to write the trace (single-run commands) or the profile
    /// (aggregate commands), when requested.
    pub trace: Option<PathBuf>,
    /// Where to write the Chrome-trace packet-journey timeline, when
    /// requested (`--journey-out`, env `EBDA_JOURNEY_OUT`).
    pub journey: Option<PathBuf>,
    /// Fraction of packets whose journeys are traced, in `[0, 1]`
    /// (`--journey-sample-rate`, env `EBDA_JOURNEY_SAMPLE_RATE`;
    /// default 1.0 = every packet). Sampling is deterministic per
    /// packet id, so reruns trace the same set.
    pub journey_sample_rate: f64,
    /// Where to write the self-profiler report, when requested
    /// (`--profile-out`, env `EBDA_PROFILE_OUT`). The file is a
    /// Perfetto-loadable Chrome trace carrying the per-worker busy
    /// timeline, with the aggregated phase tree spliced in under the
    /// extra top-level `ebdaProfile` key (`ebda profile <file>` renders
    /// it as a table).
    pub profile: Option<PathBuf>,
    /// Address to serve `/metrics` on, when requested (port 0 allowed).
    pub metrics_addr: Option<String>,
    /// Seconds to keep the metrics endpoint up after [`ObsOptions::finish`].
    pub metrics_linger: u64,
    /// Worker threads for the parallel layers (`--threads N`, env
    /// `EBDA_THREADS`; default [`ebda_par::available`]). 1 means strictly
    /// serial execution; results are identical at every value.
    pub threads: usize,
    server: Option<MetricsServer>,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            trace: None,
            journey: None,
            journey_sample_rate: 1.0,
            profile: None,
            metrics_addr: None,
            metrics_linger: 0,
            threads: ebda_par::available(),
            server: None,
        }
    }
}

impl ObsOptions {
    /// Extracts the observability flags from `args` (removing the consumed
    /// tokens), falling back to the environment variables.
    ///
    /// # Panics
    ///
    /// Panics when a flag is given without a value or with a malformed one.
    pub fn parse(args: &mut Vec<String>) -> ObsOptions {
        let metrics_addr =
            take_value(args, "--metrics-addr").or_else(|| env_string("EBDA_METRICS_ADDR"));
        let metrics_linger = take_value(args, "--metrics-linger")
            .map(|v| v.parse().expect("--metrics-linger needs whole seconds"))
            .unwrap_or(0);
        let journey = take_value(args, "--journey-out")
            .or_else(|| env_string("EBDA_JOURNEY_OUT"))
            .map(PathBuf::from);
        let journey_sample_rate = take_value(args, "--journey-sample-rate")
            .or_else(|| env_string("EBDA_JOURNEY_SAMPLE_RATE"))
            .map(|v| {
                let rate: f64 = v
                    .parse()
                    .expect("--journey-sample-rate needs a number in [0, 1]");
                assert!(
                    (0.0..=1.0).contains(&rate),
                    "--journey-sample-rate needs a number in [0, 1]"
                );
                rate
            })
            .unwrap_or(1.0);
        let profile = take_value(args, "--profile-out")
            .or_else(|| env_string("EBDA_PROFILE_OUT"))
            .map(PathBuf::from);
        let threads = take_value(args, "--threads")
            .map(|v| {
                let n: usize = v.parse().expect("--threads needs a positive integer");
                assert!(n > 0, "--threads needs a positive integer");
                n
            })
            // EBDA_THREADS / hardware fallback lives in ebda-par so that
            // library callers resolve identically to the binaries.
            .unwrap_or_else(ebda_par::threads);
        ObsOptions {
            trace: trace_path(args),
            journey,
            journey_sample_rate,
            profile,
            metrics_addr,
            metrics_linger,
            threads,
            server: None,
        }
    }

    /// Enables the requested observability layers: the self-profiler
    /// when a profile was asked for (a trace alone does not switch it
    /// on — it costs 1.2–1.3× on the simulator), the global metrics
    /// registry and the HTTP endpoint when a metrics address was given
    /// (with both, `/metrics` carries the `ebda_prof_*` families). Prints the
    /// bound address to stderr (`metrics: serving http://...`), which is
    /// how scripts discover a port-0 binding.
    ///
    /// # Panics
    ///
    /// Panics when the metrics address cannot be bound — an explicitly
    /// requested endpoint must not fail silently.
    pub fn activate(&mut self) {
        // Install the thread count process-wide so library entry points
        // that resolve via ebda_par::threads() see the flag too.
        ebda_par::set_threads(self.threads);
        if self.profile.is_some() {
            ebda_obs::prof::set_enabled(true);
        }
        if let Some(addr) = &self.metrics_addr {
            ebda_obs::metrics::set_enabled(true);
            // Identify the build on every scrape; excluded from
            // deterministic renders (its labels vary per commit).
            ebda_obs::metrics::global().gauge_set(
                "ebda_build_info",
                &[
                    ("git_rev", ebda_obs::ledger::git_rev()),
                    ("version", env!("CARGO_PKG_VERSION").to_string()),
                ],
                1.0,
            );
            let server = MetricsServer::serve(addr)
                .unwrap_or_else(|e| panic!("cannot serve metrics on {addr}: {e}"));
            eprintln!("metrics: serving http://{}/metrics", server.local_addr());
            self.server = Some(server);
        }
    }

    /// [`ObsOptions::activate`] for commands that aggregate many runs
    /// (`sweep`, `explore`, `scalability`, `ebda corpus run`, `oracle`).
    /// They share no single event log, so `--trace-out` means the profile
    /// there: it switches the profiler on like `--profile-out`, and the
    /// command ends with [`write_profile`] on [`ObsOptions::trace`].
    pub fn activate_aggregate(&mut self) {
        self.activate();
        if self.trace.is_some() {
            ebda_obs::prof::set_enabled(true);
        }
    }

    /// A recorder to attach when tracing or journey export was
    /// requested: `Some` iff [`ObsOptions::trace`] or
    /// [`ObsOptions::journey`] is. When journeys were requested the
    /// recorder comes back with a journey tracer already attached
    /// (see [`ObsOptions::journey_config`]).
    pub fn recorder(&self) -> Option<Recorder> {
        let mut rec = if self.trace.is_some() {
            recorder_for(self.trace.as_ref())
        } else {
            self.journey.as_ref().map(|_| Recorder::with_defaults())
        }?;
        if let Some(jcfg) = self.journey_config() {
            rec.enable_journeys(jcfg);
        }
        Some(rec)
    }

    /// The journey-tracer configuration implied by the flags: `Some`
    /// iff [`ObsOptions::journey`] is, carrying the sample rate.
    pub fn journey_config(&self) -> Option<JourneyConfig> {
        self.journey.as_ref().map(|_| JourneyConfig {
            sample_rate: self.journey_sample_rate,
            ..JourneyConfig::default()
        })
    }

    /// The bound metrics address, once [`ObsOptions::activate`] ran.
    pub fn bound_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(MetricsServer::local_addr)
    }

    /// Ends the observability session: writes the self-profiler report
    /// when one was requested, keeps the metrics endpoint up for the
    /// configured linger window, then shuts it down.
    pub fn finish(&self) {
        if let Some(path) = &self.profile {
            write_profile(path);
        }
        if let Some(server) = &self.server {
            if self.metrics_linger > 0 {
                eprintln!(
                    "metrics: lingering {}s on http://{}/metrics",
                    self.metrics_linger,
                    server.local_addr()
                );
                std::thread::sleep(std::time::Duration::from_secs(self.metrics_linger));
            }
            server.shutdown();
        }
    }
}

/// Removes `--flag <value>` from `args` and returns the value.
///
/// # Panics
///
/// Panics when the flag is present without a value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    assert!(i + 1 < args.len(), "{flag} needs a value");
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// A non-empty environment variable as a String.
fn env_string(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

/// Extracts `--trace-out <path>` from `args` (removing both tokens), or
/// falls back to the `EBDA_TRACE` environment variable.
///
/// # Panics
///
/// Panics when `--trace-out` is given without a value.
pub fn trace_path(args: &mut Vec<String>) -> Option<PathBuf> {
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        assert!(i + 1 < args.len(), "--trace-out needs a path argument");
        let path = args.remove(i + 1);
        args.remove(i);
        return Some(PathBuf::from(path));
    }
    std::env::var_os("EBDA_TRACE")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// A recorder to attach when tracing was requested: `Some` iff `path` is.
pub fn recorder_for(path: Option<&PathBuf>) -> Option<Recorder> {
    path.map(|_| Recorder::new(RecorderConfig::default()))
}

/// Writes the recorded trace to `path` in the format its extension picks.
///
/// # Panics
///
/// Panics when the file cannot be written — traces are explicitly
/// requested, so losing one silently would be worse.
pub fn write_trace(rec: &Recorder, path: &Path) {
    let is_csv = path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("csv"));
    if is_csv {
        std::fs::write(path, rec.events_csv())
            .unwrap_or_else(|e| panic!("write trace {}: {e}", path.display()));
        let samples = path.with_extension("samples.csv");
        std::fs::write(&samples, rec.samples_csv())
            .unwrap_or_else(|e| panic!("write trace {}: {e}", samples.display()));
    } else {
        std::fs::write(path, rec.write_json())
            .unwrap_or_else(|e| panic!("write trace {}: {e}", path.display()));
    }
    eprintln!("trace written to {}", path.display());
}

/// A small per-run recorder carrying only a journey tracer — the shape
/// sweep-style binaries attach to each simulated point when
/// `--journey-out` is set: a modest event ring (journeys themselves
/// are never evicted) and no periodic samples.
pub fn journey_recorder(cfg: JourneyConfig) -> Recorder {
    let mut rec = Recorder::new(RecorderConfig {
        capacity: 1024,
        sample_every: 0,
    });
    rec.enable_journeys(cfg);
    rec
}

/// Writes the packet journeys of `rec` as one Chrome-trace run labelled
/// `label` — load the file in Perfetto or `chrome://tracing`.
///
/// # Panics
///
/// Panics when `rec` has no journey tracer attached or the file cannot
/// be written — journeys are explicitly requested, so losing them
/// silently would be worse.
pub fn write_journey(rec: &Recorder, label: &str, path: &Path) {
    let tracer = rec
        .journeys()
        .expect("write_journey needs a journey-enabled recorder");
    let mut builder = TraceBuilder::new();
    builder.add_run(label, tracer);
    // When the self-profiler is on, render the worker busy timeline next
    // to the packet journeys so one Perfetto tab shows both.
    if ebda_obs::prof::enabled() {
        builder.add_worker_timeline("workers", &ebda_obs::prof::snapshot().workers);
    }
    std::fs::write(path, builder.finish())
        .unwrap_or_else(|e| panic!("write journey {}: {e}", path.display()));
    eprintln!(
        "journeys: {} traced ({} dropped at the cap) written to {}",
        tracer.journeys().len(),
        tracer.skipped(),
        path.display()
    );
}

/// Writes the self-profiler report to `path`: a Chrome-trace JSON whose
/// events are the per-worker busy segments (one Perfetto track per
/// worker) and whose extra top-level `ebdaProfile` key carries the full
/// aggregated phase snapshot — [`ebda_obs::ProfSnapshot::to_json`] —
/// so `ebda profile <path>` can render the table, the deterministic
/// counter tree, or the flame view without re-running anything.
///
/// # Panics
///
/// Panics when the file cannot be written — profiles are explicitly
/// requested, so losing one silently would be worse.
pub fn write_profile(path: &Path) {
    let snap = ebda_obs::prof::snapshot();
    let mut builder = TraceBuilder::new();
    builder.add_worker_timeline("workers", &snap.workers);
    std::fs::write(
        path,
        builder.finish_with_extra("ebdaProfile", &snap.to_json()),
    )
    .unwrap_or_else(|e| panic!("write profile {}: {e}", path.display()));
    eprintln!(
        "profile: {} phases, {} worker segments written to {}",
        snap.phases.len(),
        snap.workers.len(),
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_obs::json::Value;
    use ebda_obs::Event;

    #[test]
    fn obs_options_extract_all_flags_and_serve() {
        let mut args = vec![
            "work".to_string(),
            "--metrics-addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--metrics-linger".to_string(),
            "0".to_string(),
            "--trace-out".to_string(),
            "/tmp/t.json".to_string(),
        ];
        let mut obs = ObsOptions::parse(&mut args);
        assert_eq!(args, vec!["work".to_string()]);
        assert_eq!(obs.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(obs.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(obs.metrics_linger, 0);
        assert!(obs.bound_addr().is_none());
        obs.activate();
        let addr = obs.bound_addr().expect("bound after activate");
        let body = ebda_obs::http_get(&addr.to_string(), "/healthz").unwrap();
        assert!(body.starts_with("ok uptime_seconds="), "body {body:?}");
        obs.finish();
    }

    #[test]
    fn trace_out_flag_is_extracted() {
        let mut args = vec![
            "positional".to_string(),
            "--trace-out".to_string(),
            "/tmp/t.json".to_string(),
            "tail".to_string(),
        ];
        let path = trace_path(&mut args);
        assert_eq!(path, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(args, vec!["positional".to_string(), "tail".to_string()]);
    }

    #[test]
    fn recorder_only_when_requested() {
        assert!(recorder_for(None).is_none());
        assert!(recorder_for(Some(&PathBuf::from("x.json"))).is_some());
    }

    #[test]
    fn json_trace_roundtrips_with_exactly_the_recorder_keys() {
        let mut rec = Recorder::with_defaults();
        rec.record(Event::Inject {
            cycle: 1,
            pid: 0,
            src: 0,
            dst: 5,
            len: 4,
        });
        let dir = std::env::temp_dir();
        let path = dir.join("ebda-trace-test.json");
        write_trace(&rec, &path);
        let doc = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(doc.get("events").unwrap().as_arr().unwrap().len() == 1);
        let Value::Obj(top) = &doc else {
            panic!("trace document is not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["events", "meta", "samples", "totals"]);
        std::fs::remove_file(&path).ok();
    }
}
