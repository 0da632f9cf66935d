//! The observability flags every run-producing `ebda` subcommand shares.
//!
//! `--trace-out <path>` runs with a flight recorder attached and writes
//! the trace there on exit: `.csv` paths get the event log as CSV plus a
//! `<stem>.samples.csv` sibling with the time series; any other extension
//! gets the recorder's JSON document (meta + totals + events + samples)
//! and nothing else. Commands that aggregate many runs have no single
//! event log and write the `write_profile` document to the trace path
//! instead (`ObsOptions::activate_aggregate`). Flags are the only
//! input: nothing here reads the environment (`EBDA_THREADS` is resolved
//! inside `ebda-par`).

use crate::args::{Args, CliError};
use ebda_obs::{JourneyConfig, MetricsServer, Recorder, RecorderConfig, TraceBuilder};
use std::path::{Path, PathBuf};

/// The observability options of one run, one field per flag (tabulated
/// in docs/OBSERVABILITY.md §3). Campaigns additionally read where their
/// evidence goes ([`ObsOptions::parse_with_evidence`]).
///
/// Typical command shape:
///
/// ```no_run
/// # fn main() -> Result<(), ebda_bench::args::CliError> {
/// let mut args = ebda_bench::args::Args::new(std::env::args().skip(2).collect());
/// let mut obs = ebda_bench::trace::ObsOptions::parse(&mut args)?;
/// args.finish()?;
/// obs.activate()?;
/// // ... the actual work ...
/// obs.finish()
/// # }
/// ```
#[derive(Debug)]
pub struct ObsOptions {
    /// Where to write the trace (single-run commands) or the profile
    /// (aggregate commands), when requested.
    pub trace: Option<PathBuf>,
    /// Where to write the Chrome-trace packet-journey timeline, when
    /// requested (`--journey-out`).
    pub journey: Option<PathBuf>,
    /// Fraction of packets whose journeys are traced, in `[0, 1]`
    /// (`--journey-sample-rate`; default 1.0 = every packet). Sampling
    /// is deterministic per packet id, so reruns trace the same set.
    pub journey_sample_rate: f64,
    /// Where to write the self-profiler report, when requested
    /// (`--profile-out`). The file is a Perfetto-loadable Chrome trace
    /// carrying the per-worker busy timeline, with the aggregated phase
    /// tree spliced in under the extra top-level `ebdaProfile` key
    /// (`ebda profile <file>` renders it as a table).
    pub profile: Option<PathBuf>,
    /// Address to serve `/metrics` on, when requested (port 0 allowed).
    pub metrics_addr: Option<String>,
    /// Seconds to keep the metrics endpoint up after [`ObsOptions::finish`].
    pub metrics_linger: u64,
    /// Worker threads for the parallel layers (`--threads N`, else
    /// [`ebda_par::threads`]). 1 means strictly serial execution;
    /// results are identical at every value.
    pub threads: usize,
    /// The run ledger a campaign appends to (`--ledger`); the endpoint
    /// serves it at `/ledger`.
    pub ledger: Option<PathBuf>,
    /// The coverage map a campaign writes (`--coverage-out`); the
    /// endpoint serves it at `/coverage`.
    pub coverage: Option<PathBuf>,
    server: Option<MetricsServer>,
}

impl ObsOptions {
    /// Reads the observability flags out of `args`.
    ///
    /// # Errors
    ///
    /// A usage error naming the flag given without a value or with a
    /// malformed one.
    pub fn parse(args: &mut Args) -> Result<ObsOptions, CliError> {
        let journey_sample_rate = args.value_with("--journey-sample-rate", |raw| {
            raw.parse()
                .ok()
                .filter(|rate| (0.0..=1.0).contains(rate))
                .ok_or_else(|| "needs a number in [0, 1]".to_string())
        })?;
        let threads = args.value_with("--threads", |raw| {
            raw.parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| "needs a positive integer".to_string())
        })?;
        Ok(ObsOptions {
            trace: args.value("--trace-out")?,
            journey: args.value("--journey-out")?,
            journey_sample_rate: journey_sample_rate.unwrap_or(1.0),
            profile: args.value("--profile-out")?,
            metrics_addr: args.value("--metrics-addr")?,
            metrics_linger: args.value("--metrics-linger")?.unwrap_or(0),
            // EBDA_THREADS / hardware fallback lives in ebda-par so that
            // library callers resolve identically to the commands.
            threads: threads.unwrap_or_else(ebda_par::threads),
            ledger: None,
            coverage: None,
            server: None,
        })
    }

    /// [`ObsOptions::parse`] for the commands that write evidence
    /// (`ebda oracle`, `ebda corpus run`): also reads `--ledger` and
    /// `--coverage-out`, which the endpoint then serves.
    ///
    /// # Errors
    ///
    /// See [`ObsOptions::parse`].
    pub fn parse_with_evidence(args: &mut Args) -> Result<ObsOptions, CliError> {
        Ok(ObsOptions {
            ledger: args.value("--ledger")?,
            coverage: args.value("--coverage-out")?,
            ..ObsOptions::parse(args)?
        })
    }

    /// Enables the requested observability layers: the self-profiler
    /// when a profile or a metrics address was asked for (a trace alone
    /// does not switch it on — it costs 1.2–1.3× on the simulator), and
    /// the global metrics registry and the HTTP endpoint when a metrics
    /// address was given. The profiler is where every count is kept, so
    /// `/metrics` renders its counters from it. Prints the bound address
    /// to stderr (`metrics: serving http://...`), which is how scripts
    /// discover a port-0 binding.
    ///
    /// # Errors
    ///
    /// Fails when the metrics address cannot be bound — an explicitly
    /// requested endpoint must not fail silently.
    pub fn activate(&mut self) -> Result<(), CliError> {
        // Install the thread count process-wide so library entry points
        // that resolve via ebda_par::threads() see the flag too.
        ebda_par::set_threads(self.threads);
        if self.profile.is_some() || self.metrics_addr.is_some() {
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
            let server = MetricsServer::serve(addr, self.ledger.clone(), self.coverage.clone())
                .map_err(|e| CliError::Failed(format!("cannot serve metrics on {addr}: {e}")))?;
            eprintln!("metrics: serving http://{}/metrics", server.local_addr());
            self.server = Some(server);
        }
        Ok(())
    }

    /// [`ObsOptions::activate`] for commands that aggregate many runs
    /// (`repro sweep`, `repro explore`, `repro scalability`, `corpus
    /// run`, `oracle`). They share no single event log, so `--trace-out`
    /// means the profile there: it switches the profiler on like
    /// `--profile-out`, and the command ends with [`write_profile`] on
    /// [`ObsOptions::trace`].
    ///
    /// # Errors
    ///
    /// See [`ObsOptions::activate`].
    pub(crate) fn activate_aggregate(&mut self) -> Result<(), CliError> {
        self.activate()?;
        if self.trace.is_some() {
            ebda_obs::prof::set_enabled(true);
        }
        Ok(())
    }

    /// A recorder to attach when tracing or journey export was
    /// requested: `Some` iff [`ObsOptions::trace`] or
    /// [`ObsOptions::journey`] is. When journeys were requested the
    /// recorder comes back with a journey tracer already attached
    /// (see `ObsOptions::journey_config`).
    pub fn recorder(&self) -> Option<Recorder> {
        let mut rec =
            (self.trace.is_some() || self.journey.is_some()).then(Recorder::with_defaults)?;
        if let Some(jcfg) = self.journey_config() {
            rec.enable_journeys(jcfg);
        }
        Some(rec)
    }

    /// The journey-tracer configuration implied by the flags: `Some`
    /// iff [`ObsOptions::journey`] is, carrying the sample rate.
    pub(crate) fn journey_config(&self) -> Option<JourneyConfig> {
        self.journey.as_ref().map(|_| JourneyConfig {
            sample_rate: self.journey_sample_rate,
            ..JourneyConfig::default()
        })
    }

    /// Tells stderr where a campaign's evidence went (`records` ledger
    /// lines, the merged coverage `map`), for the files that were asked for.
    pub(crate) fn note_evidence(&self, records: usize, map: Option<&ebda_obs::CoverageMap>) {
        if let Some(path) = &self.ledger {
            eprintln!(
                "ledger: {records} verdicts appended to {} ({} threads)",
                path.display(),
                self.threads
            );
        }
        if let (Some(path), Some(map)) = (&self.coverage, map) {
            eprintln!(
                "coverage: {} points written to {} (digest {})",
                map.total_points(),
                path.display(),
                map.digest()
            );
        }
    }

    /// Ends the observability session: writes the self-profiler report
    /// when one was requested, keeps the metrics endpoint up for the
    /// configured linger window, then shuts it down.
    ///
    /// # Errors
    ///
    /// Fails when the profile cannot be written (the endpoint is shut
    /// down regardless).
    pub fn finish(&self) -> Result<(), CliError> {
        let written = self.profile.as_deref().map_or(Ok(()), write_profile);
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
        written
    }
}

/// Writes a requested output file; `what` names it in the error.
///
/// # Errors
///
/// The I/O failure as a [`CliError::Failed`] — outputs are explicitly
/// requested, so losing one must fail the command.
pub fn write_file(what: &str, path: &Path, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::Failed(format!("write {what} {}: {e}", path.display())))
}

/// Writes the recorded trace to `path` in the format its extension picks.
///
/// # Errors
///
/// See [`write_file`].
pub fn write_trace(rec: &Recorder, path: &Path) -> Result<(), CliError> {
    let is_csv = path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("csv"));
    if is_csv {
        write_file("trace", path, rec.events_csv())?;
        write_file(
            "trace",
            &path.with_extension("samples.csv"),
            rec.samples_csv(),
        )?;
    } else {
        write_file("trace", path, rec.write_json())?;
    }
    eprintln!("trace written to {}", path.display());
    Ok(())
}

/// A small per-run recorder carrying only a journey tracer — the shape
/// the sweep attaches to each simulated point when `--journey-out` is
/// set: a modest event ring (journeys themselves are never evicted) and
/// no periodic samples.
pub(crate) fn journey_recorder(cfg: JourneyConfig) -> Recorder {
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
/// # Errors
///
/// See [`write_file`].
///
/// # Panics
///
/// Panics when `rec` has no journey tracer attached (a caller bug).
pub fn write_journey(rec: &Recorder, label: &str, path: &Path) -> Result<(), CliError> {
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
    write_file("journey", path, builder.finish())?;
    eprintln!(
        "journeys: {} traced ({} dropped at the cap) written to {}",
        tracer.journeys().len(),
        tracer.skipped(),
        path.display()
    );
    Ok(())
}

/// Writes the self-profiler report to `path`: a Chrome-trace JSON whose
/// events are the per-worker busy segments (one Perfetto track per
/// worker) and whose extra top-level `ebdaProfile` key carries the full
/// aggregated phase snapshot — [`ebda_obs::ProfSnapshot::to_json`] —
/// so `ebda profile <path>` can render the table, the deterministic
/// counter tree, or the flame view without re-running anything.
///
/// # Errors
///
/// See [`write_file`].
pub(crate) fn write_profile(path: &Path) -> Result<(), CliError> {
    let snap = ebda_obs::prof::snapshot();
    let mut builder = TraceBuilder::new();
    builder.add_worker_timeline("workers", &snap.workers);
    write_file(
        "profile",
        path,
        builder.finish_with_extra("ebdaProfile", &snap.to_json()),
    )?;
    eprintln!(
        "profile: {} phases, {} worker segments written to {}",
        snap.phases.len(),
        snap.workers.len(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_obs::json::Value;
    use ebda_obs::Event;

    #[test]
    fn obs_options_extract_all_flags_and_serve() {
        let mut args = Args::new(
            "work --metrics-addr 127.0.0.1:0 --metrics-linger 0 --trace-out /tmp/t.json"
                .split_whitespace()
                .map(String::from)
                .collect(),
        );
        let mut obs = ObsOptions::parse(&mut args).unwrap();
        assert_eq!(args.positionals().unwrap(), ["work"]);
        assert_eq!(obs.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(obs.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(obs.metrics_linger, 0);
        assert!(obs.server.is_none());
        obs.activate().unwrap();
        let server = obs.server.as_ref().expect("bound after activate");
        let addr = server.local_addr();
        let body = ebda_obs::http_get(&addr.to_string(), "/healthz").unwrap();
        assert!(body.starts_with("ok uptime_seconds="), "body {body:?}");
        obs.finish().unwrap();
    }

    #[test]
    fn recorder_only_when_requested() {
        let parse = |line: &str| {
            let words = line.split_whitespace().map(String::from).collect();
            ObsOptions::parse(&mut Args::new(words)).unwrap()
        };
        assert!(parse("").recorder().is_none());
        assert!(parse("--trace-out x.json").recorder().is_some());
        assert!(parse("--journey-out j.json").recorder().is_some());
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
        write_trace(&rec, &path).unwrap();
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
