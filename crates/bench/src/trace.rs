//! One observability session per `ebda` command: the dispatcher (`run`
//! in `src/bin/ebda.rs`) reads an [`ObsOptions`] off every command line,
//! [activates](ObsOptions::activate) it, hands it to the command and
//! [finishes](ObsOptions::finish) it after. The process flags reach every
//! command; a run output's flag only the commands whose [`Output`]s
//! declare it (docs/OBSERVABILITY.md §3).
//!
//! Two rules are decided here and nowhere else. `--trace-out` and
//! `--journey-out` write what the command handed back in its [`Traces`]:
//! with no trace, `--trace-out` gets the profile; with no journeys,
//! `--journey-out` is not written and stderr says so. And an output or
//! endpoint that cannot be had fails the command (exit 1) after its
//! result is printed, while a usage error writes nothing and does not
//! linger. Flags are the only input: nothing here reads the environment
//! (`EBDA_THREADS` is resolved inside `ebda-par`).

use crate::args::{Args, CliError};
use ebda_obs::{JourneyConfig, MetricsServer, Recorder, TraceBuilder};
use std::path::{Path, PathBuf};

/// A run output a command writes: it accepts that output's flag.
/// `ebda` declares the outputs of each command beside its command table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Output {
    /// `--trace-out`, which switches the profiler on like `--profile-out`:
    /// when the run hands back no trace, the profile is written there.
    Trace,
    /// `--trace-out` as the flight recorder's event log, which leaves the
    /// profiler off (it costs 1.2–1.3× on the simulator).
    RecorderTrace,
    /// `--journey-out` and `--journey-sample-rate`.
    Journeys,
    /// `--ledger`.
    Ledger,
    /// `--coverage-out`.
    Coverage,
}

/// What a command hands back to its session: the documents
/// `--trace-out` and `--journey-out` write, where the run has them.
#[derive(Default)]
pub struct Traces {
    /// The run's own trace; without one, `--trace-out` gets the profile.
    pub trace: Option<Document>,
    /// The run's packet journeys; without them, `--journey-out` is not
    /// written.
    pub journeys: Option<Document>,
}

/// One document a command hands back.
pub enum Document {
    /// A flight recorder's event log: for a `.csv` path the events as
    /// CSV plus a `<stem>.samples.csv` sibling with the time series, for
    /// any other path the recorder's JSON document (meta + totals +
    /// events + samples) and nothing else.
    Recorder(Box<Recorder>),
    /// Packet journeys as a Chrome trace (Perfetto, `chrome://tracing`).
    /// With the profiler on, the worker busy timeline joins them, so one
    /// Perfetto tab shows both.
    Timeline(TraceBuilder),
    /// A document already rendered, written as it is.
    Text(String),
}

impl Document {
    /// Writes the document to `path`; `what` names it on stderr.
    fn write(self, what: &str, path: &Path) -> Result<(), CliError> {
        let csv = path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("csv"));
        let (text, samples) = match self {
            Document::Recorder(rec) if csv => (rec.events_csv(), Some(rec.samples_csv())),
            Document::Recorder(rec) => (rec.write_json(), None),
            Document::Timeline(mut builder) => {
                if ebda_obs::prof::enabled() {
                    builder.add_worker_timeline("workers", &ebda_obs::prof::snapshot().workers);
                }
                (builder.finish(), None)
            }
            Document::Text(text) => (text, None),
        };
        write_file(what, path, text)?;
        if let Some(samples) = samples {
            write_file(what, &path.with_extension("samples.csv"), samples)?;
        }
        eprintln!("{what} written to {}", path.display());
        Ok(())
    }
}

/// The observability session of one command, one field per flag
/// (tabulated in docs/OBSERVABILITY.md §3).
#[derive(Debug)]
pub struct ObsOptions {
    /// Where to write the trace (or the profile, when the run hands back
    /// no trace), when requested (`--trace-out`).
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
    /// Seconds to keep the metrics endpoint up after the command.
    pub metrics_linger: u64,
    /// Worker threads for the parallel layers (`--threads N`, else
    /// [`ebda_par::threads`]). 1 means strictly serial execution;
    /// results are identical at every value.
    pub threads: usize,
    /// The run ledger the command appends to (`--ledger`); the endpoint
    /// serves it at `/ledger`.
    pub ledger: Option<PathBuf>,
    /// The coverage map the command writes (`--coverage-out`); the
    /// endpoint serves it at `/coverage`.
    pub coverage: Option<PathBuf>,
    /// The endpoint once activated: serving, or why it could not bind.
    server: Option<Result<MetricsServer, String>>,
}

impl ObsOptions {
    /// Reads the process flags and the run `outputs` out of `args`;
    /// every other flag stays there for the command.
    ///
    /// # Errors
    ///
    /// A usage error naming the flag given without a value or with a
    /// malformed one.
    pub fn parse(args: &mut Args, outputs: &[Output]) -> Result<ObsOptions, CliError> {
        let writes = |output| outputs.contains(&output);
        let mut path = |accepted: bool, flag: &str| {
            if accepted {
                args.value::<PathBuf>(flag)
            } else {
                Ok(None)
            }
        };
        let trace = path(
            writes(Output::Trace) || writes(Output::RecorderTrace),
            "--trace-out",
        )?;
        let journey = path(writes(Output::Journeys), "--journey-out")?;
        let ledger = path(writes(Output::Ledger), "--ledger")?;
        let coverage = path(writes(Output::Coverage), "--coverage-out")?;
        let journey_sample_rate = if writes(Output::Journeys) {
            args.value_with("--journey-sample-rate", |raw| {
                raw.parse()
                    .ok()
                    .filter(|rate| (0.0..=1.0).contains(rate))
                    .ok_or_else(|| "needs a number in [0, 1]".to_string())
            })?
        } else {
            None
        };
        let threads = args.value_with("--threads", |raw| {
            raw.parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| "needs a positive integer".to_string())
        })?;
        Ok(ObsOptions {
            trace,
            journey,
            journey_sample_rate: journey_sample_rate.unwrap_or(1.0),
            profile: args.value("--profile-out")?,
            metrics_addr: args.value("--metrics-addr")?,
            metrics_linger: args.value("--metrics-linger")?.unwrap_or(0),
            // EBDA_THREADS / hardware fallback lives in ebda-par so that
            // library callers resolve identically to the commands.
            threads: threads.unwrap_or_else(ebda_par::threads),
            ledger,
            coverage,
            server: None,
        })
    }

    /// Enables the requested observability layers: the worker count
    /// process-wide, the self-profiler when a profile, a metrics address
    /// or (unless `outputs` make it the recorder's) a trace was asked
    /// for, and the global metrics registry and the HTTP endpoint when a
    /// metrics address was given. The profiler is where every count is
    /// kept, so `/metrics` renders its counters from it. Prints the bound
    /// address to stderr (`metrics: serving http://...`), which is how
    /// scripts discover a port-0 binding; an address that cannot be
    /// bound fails the command in [`ObsOptions::finish`], after its
    /// result.
    pub fn activate(&mut self, outputs: &[Output]) {
        // Library entry points that resolve via ebda_par::threads() see
        // the flag too.
        ebda_par::set_threads(self.threads);
        let profile_trace = self.trace.is_some() && !outputs.contains(&Output::RecorderTrace);
        if self.profile.is_some() || self.metrics_addr.is_some() || profile_trace {
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
            let served = MetricsServer::serve(addr, self.ledger.clone(), self.coverage.clone())
                .map_err(|e| format!("cannot serve metrics on {addr}: {e}"));
            if let Ok(server) = &served {
                eprintln!("metrics: serving http://{}/metrics", server.local_addr());
            }
            self.server = Some(served);
        }
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

    /// Ends the session of a command that `ran` and handed back
    /// `traces`. After a result — success or a failed check — it writes
    /// the requested trace, journeys and profile, keeps the metrics
    /// endpoint up for the linger window and shuts it down. After a
    /// usage error it only shuts the endpoint down.
    ///
    /// # Errors
    ///
    /// The usage error the command returned; else the endpoint that
    /// could not be bound, then the first output that could not be
    /// written, then the command's own failure.
    pub fn finish(self, ran: Result<(), CliError>, traces: Traces) -> Result<(), CliError> {
        let usage = matches!(ran, Err(CliError::Usage(_)));
        let written = if usage { Ok(()) } else { self.write(traces) };
        let served = match &self.server {
            Some(Ok(server)) => {
                if self.metrics_linger > 0 && !usage {
                    let linger = self.metrics_linger;
                    let addr = server.local_addr();
                    eprintln!("metrics: lingering {linger}s on http://{addr}/metrics");
                    std::thread::sleep(std::time::Duration::from_secs(linger));
                }
                server.shutdown();
                Ok(())
            }
            Some(Err(unbound)) if !usage => Err(CliError::Failed(unbound.clone())),
            _ => Ok(()),
        };
        served.and(written).and(ran)
    }

    /// Writes the requested trace, journeys and profile.
    fn write(&self, traces: Traces) -> Result<(), CliError> {
        if let Some(path) = &self.trace {
            match traces.trace {
                Some(trace) => trace.write("trace", path)?,
                None => write_profile(path)?,
            }
        }
        if let Some(path) = &self.journey {
            match traces.journeys {
                Some(journeys) => journeys.write("journeys", path)?,
                None => eprintln!("journeys: nothing traced, {} not written", path.display()),
            }
        }
        self.profile.as_deref().map_or(Ok(()), write_profile)
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
fn write_profile(path: &Path) -> Result<(), CliError> {
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
        let outputs = [Output::RecorderTrace];
        let mut obs = ObsOptions::parse(&mut args, &outputs).unwrap();
        assert_eq!(args.positionals().unwrap(), ["work"]);
        assert_eq!(obs.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(obs.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(obs.metrics_linger, 0);
        assert!(obs.server.is_none());
        obs.activate(&outputs);
        let Some(Ok(server)) = &obs.server else {
            panic!("bound after activate")
        };
        let addr = server.local_addr();
        let body = ebda_obs::http_get(&addr.to_string(), "/healthz").unwrap();
        assert!(body.starts_with("ok uptime_seconds="), "body {body:?}");
        // The trace was asked for but never handed back: the profile
        // takes its place, so nothing is written to /tmp/t.json here.
        obs.trace = None;
        obs.finish(Ok(()), Traces::default()).unwrap();
    }

    #[test]
    fn recorder_only_when_requested() {
        let parse = |line: &str| {
            let words = line.split_whitespace().map(String::from).collect();
            let outputs = [Output::Trace, Output::Journeys];
            ObsOptions::parse(&mut Args::new(words), &outputs).unwrap()
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
        Document::Recorder(Box::new(rec))
            .write("trace", &path)
            .unwrap();
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
