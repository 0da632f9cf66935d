//! Live metrics: log-bucketed histograms, counters and gauges in a
//! process-wide [`MetricsRegistry`], rendered as Prometheus text
//! exposition format (version 0.0.4) for the `/metrics` endpoint in
//! [`crate::http`].
//!
//! The registry complements the flight recorder (`crate::recorder`) and
//! the self-profiler ([`crate::prof`]): the recorder is a post-mortem
//! event log of *one* run, the profiler is where every count is kept,
//! and this module is the *live*, scrapeable view of a whole campaign —
//! thousands of simulations, sweep points or oracle artifacts — while it
//! executes.
//!
//! There is one counter system: every unlabelled counter family is a
//! profiler phase's calls, wall time or work unit, named by one table
//! ([`counter_family`]), and [`render_global`] reads them — with the
//! `ebda_prof_*` families — off the profiler at scrape time. The
//! registry holds gauges, histograms and the two counter families
//! labelled by run data (`ebda_sim_channel_flits_total`,
//! `ebda_ledger_records_total`). It is off by default: until
//! [`set_enabled`] every emission is a single relaxed atomic load, and
//! instrumented code batches locally and flushes under one lock.
//!
//! Metric names follow Prometheus conventions:
//! `ebda_<area>_<thing>_<unit>[_total]`, lowercase, with labels for
//! per-series dimensions (`{phase="..."}`, `{node="...",dim="..."}`).
//! docs/OBSERVABILITY.md lists the full vocabulary.
//!
//! Determinism: every cycle-derived family is byte-identical across
//! identical-seed runs. Wall-clock families (suffix `_ns`) are the one
//! exception; [`RenderOptions::deterministic`] omits them, which is what
//! the determinism tests use.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of linear sub-buckets per power-of-two range (as a bit count):
/// 16 sub-buckets, bounding the relative quantile error at 1/16 = 6.25%.
const SUB_BITS: u32 = 4;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Returns the bucket index of a value under the log-linear scheme:
/// values below 16 get exact singleton buckets; every power-of-two range
/// `[2^k, 2^(k+1))` above is split into 16 equal linear sub-buckets.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // >= SUB_BITS
    let sub = (v >> (msb - SUB_BITS as u64)) & (SUB_BUCKETS - 1);
    ((msb - SUB_BITS as u64 + 1) * SUB_BUCKETS + sub) as usize
}

/// Inclusive upper bound of bucket `i` (the inverse of [`bucket_index`]).
pub(crate) fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let msb = i / SUB_BUCKETS + SUB_BITS as u64 - 1;
    let sub = i % SUB_BUCKETS;
    let width = 1u64 << (msb - SUB_BITS as u64);
    (1u64 << msb) + (sub + 1) * width - 1
}

/// A log-bucketed histogram of `u64` observations with exact count, sum,
/// min and max, and quantile estimation with at most 6.25% relative error
/// (exact below 16).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts, grown on demand (index per [`bucket_index`]).
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let i = bucket_index(v);
        if self.buckets.len() <= i {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds another histogram into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Value at quantile `q` in `[0, 1]` by nearest rank over bucket upper
    /// bounds, clamped to the observed `[min, max]`. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending order — the raw material of the exposition format.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }
}

/// One metric series key: family name plus sorted label pairs.
type Key = (String, Vec<(String, String)>);

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

/// A set of counters, gauges and log-bucketed histograms, addressable by
/// `(name, labels)` and renderable as Prometheus text exposition.
///
/// All methods take `&self`; one internal mutex serializes updates.
/// Instrumented hot paths should aggregate locally (a plain [`Histogram`]
/// or `u64`) and flush once via [`MetricsRegistry::merge_histogram`] /
/// [`MetricsRegistry::counter_add`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

/// Rendering switches for [`MetricsRegistry::render`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RenderOptions {
    /// Omit families that vary across identical-seed runs — wall-clock
    /// families (name ending in `_ns`) and the build-stamped
    /// `ebda_build_info` gauge — leaving only families that are
    /// byte-identical across identical-seed runs.
    pub deterministic: bool,
}

fn key(name: &str, labels: &[(&str, String)]) -> Key {
    let mut ls: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    ls.sort();
    (name.to_string(), ls)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// Adds `delta` to the counter series `(name, labels)`.
    pub fn counter_add(&self, name: &str, labels: &[(&str, String)], delta: u64) {
        *self.lock().counters.entry(key(name, labels)).or_insert(0) += delta;
    }

    /// Sets the gauge series `(name, labels)` to `value`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, String)], value: f64) {
        self.lock().gauges.insert(key(name, labels), value);
    }

    /// Records one observation into the histogram series `(name, labels)`.
    pub fn observe(&self, name: &str, labels: &[(&str, String)], value: u64) {
        self.lock()
            .histograms
            .entry(key(name, labels))
            .or_default()
            .observe(value);
    }

    /// Folds a locally aggregated histogram into the series
    /// `(name, labels)` under one lock acquisition.
    pub fn merge_histogram(&self, name: &str, labels: &[(&str, String)], h: &Histogram) {
        self.lock()
            .histograms
            .entry(key(name, labels))
            .or_default()
            .merge(h);
    }

    /// Clears every series (for tests and phase boundaries).
    pub fn reset(&self) {
        *self.lock() = Inner::default();
    }

    /// Renders the registry in Prometheus text exposition format 0.0.4:
    /// one `# TYPE` line per family, series sorted by name then labels, so
    /// identical registry contents produce byte-identical text.
    pub fn render(&self, opts: RenderOptions) -> String {
        self.render_with(opts, BTreeMap::new())
    }

    /// [`Self::render`] with `counters` rendered among the registry's own
    /// (a series in both is summed).
    fn render_with(&self, opts: RenderOptions, mut counters: BTreeMap<Key, u64>) -> String {
        let inner = self.lock();
        for (key, value) in &inner.counters {
            *counters.entry(key.clone()).or_insert(0) += value;
        }
        let mut out = String::new();
        let skip =
            |name: &str| opts.deterministic && (name.ends_with("_ns") || name == "ebda_build_info");
        // Whether a series of `name` is rendered; writes the `# TYPE`
        // line before the first series of each family.
        let mut last = ("", String::new());
        let mut family = |out: &mut String, name: &str, kind: &'static str| {
            if !skip(name) && (kind, name) != (last.0, last.1.as_str()) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last = (kind, name.to_string());
            }
            !skip(name)
        };
        for ((name, labels), value) in &counters {
            if family(&mut out, name, "counter") {
                let _ = writeln!(out, "{name}{} {value}", render_labels(labels, None));
            }
        }
        for ((name, labels), value) in &inner.gauges {
            if family(&mut out, name, "gauge") {
                let (labels, value) = (render_labels(labels, None), render_f64(*value));
                let _ = writeln!(out, "{name}{labels} {value}");
            }
        }
        for ((name, labels), h) in &inner.histograms {
            if !family(&mut out, name, "histogram") {
                continue;
            }
            let mut cum = 0u64;
            for (upper, count) in h.nonzero_buckets() {
                cum += count;
                let le = render_labels(labels, Some(&upper.to_string()));
                let _ = writeln!(out, "{name}_bucket{le} {cum}");
            }
            let (inf, plain) = (
                render_labels(labels, Some("+Inf")),
                render_labels(labels, None),
            );
            let _ = writeln!(out, "{name}_bucket{inf} {cum}");
            let _ = writeln!(out, "{name}_sum{plain} {}", h.sum());
            let _ = writeln!(out, "{name}_count{plain} {}", h.count());
        }
        out
    }
}

/// Renders a label set (plus an optional `le` bucket label) in exposition
/// syntax; empty label sets render as nothing.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats an f64 the way Prometheus expects (`NaN`, `+Inf`, `-Inf`,
/// shortest decimal otherwise).
fn render_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// The process-global registry.
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide registry behind the free functions and the `/metrics`
/// endpoint.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Globally enables or disables the registry: gauges, histograms and
/// the two labelled counter families. The counters read off the
/// profiler move when the profiler is on ([`crate::prof::set_enabled`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metrics collection is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets a global gauge (no-op when disabled).
pub fn gauge_set(name: &str, labels: &[(&str, String)], value: f64) {
    if enabled() {
        global().gauge_set(name, labels, value);
    }
}

// ---------------------------------------------------------------------------
// Counter families read off the profiler.
// ---------------------------------------------------------------------------

/// Every unlabelled counter family and the profiler count it renders:
/// `(family, phase, count)`, where a count is the phase's `calls`, its
/// `wall_ns` or one of its work units (no unit is named either) — the
/// one place that knows these names. Sorted by family.
#[rustfmt::skip]
const COUNTERS: &[(&str, &str, &str)] = &[
    ("ebda_corpus_deadlock_free_total",               "corpus/check",          "deadlock_free"),
    ("ebda_corpus_deadlocking_total",                 "corpus/check",          "deadlocking"),
    ("ebda_corpus_entries_checked_total",             "corpus/check",          "entries"),
    ("ebda_corpus_mismatches_total",                  "corpus/shrink",         "mismatches"),
    ("ebda_corpus_witnesses_archived_total",          "corpus/archive",        "witnesses"),
    ("ebda_ledger_appends_total",                     "obs/ledger/append",     "appends"),
    ("ebda_oracle_artifacts_checked_total",           "oracle/campaign",       "artifacts_checked"),
    ("ebda_oracle_artifacts_shrunk_total",            "oracle/shrink",         "calls"),
    ("ebda_oracle_brute_sweeps_total",                "oracle/evaluate/brute", "gfp_sweeps"),
    ("ebda_oracle_deadlocking_artifacts_total",       "oracle/campaign",       "deadlocking"),
    ("ebda_oracle_disagreements_total",               "oracle/campaign",       "disagreements"),
    ("ebda_oracle_shrink_evals_total",                "oracle/shrink",         "shrink_evals"),
    ("ebda_par_jobs_total",                           "par/map",               "calls"),
    ("ebda_par_tasks_total",                          "par/map",               "tasks"),
    ("ebda_par_worker_busy_ns_total",                 "par/busy",              "wall_ns"),
    ("ebda_par_worker_idle_ns_total",                 "par/idle",              "wall_ns"),
    ("ebda_sim_credit_stalls_total",                  "sim/run",               "credit_stalls"),
    ("ebda_sim_cycles_total",                         "sim/run",               "cycles"),
    ("ebda_sim_deadlocks_total",                      "sim/run",               "deadlocks"),
    ("ebda_sim_delivered_log_sparse_fallbacks_total", "sim/run",               "delivered_log_sparse_fallbacks"),
    ("ebda_sim_packets_delivered_total",              "sim/run",               "packets_delivered"),
    ("ebda_sim_packets_dropped_total",                "sim/run",               "packets_dropped"),
    ("ebda_sim_packets_injected_total",               "sim/run",               "packets_injected"),
    ("ebda_sim_packets_reordered_total",              "sim/run",               "packets_reordered"),
    ("ebda_sim_routing_faults_total",                 "sim/run",               "routing_faults"),
    ("ebda_sim_runs_total",                           "sim/run",               "calls"),
    ("ebda_sweep_points_total",                       "sweep/run",             "points"),
    ("ebda_watchdog_suspected_cycles_total",          "sim/run",               "suspected_cycles"),
    ("ebda_watchdog_trips_total",                     "sim/run",               "watchdog_trips"),
];

/// The counter family that renders `count` of `phase` (its `calls`, its
/// `wall_ns` or a work unit), if one does — `ebda monitor` reads the
/// scraped counters through here.
pub fn counter_family(phase: &str, count: &str) -> Option<&'static str> {
    COUNTERS
        .iter()
        .find(|&&(_, p, c)| p == phase && c == count)
        .map(|&(name, _, _)| name)
}

/// The profiler's counters as series: every nonzero [`COUNTERS`] row,
/// and each phase's calls, wall time and work units as the
/// `ebda_prof_*` families. Read under the profiler's lock alone.
fn profiler_counters() -> BTreeMap<Key, u64> {
    let phase_label = |phase: &str| ("phase".to_string(), phase.to_string());
    crate::prof::with_phases(|phases| {
        let mut out = BTreeMap::new();
        for &(name, phase, count) in COUNTERS {
            let value = phases.get(phase).map_or(0, |stat| match count {
                "calls" => stat.calls,
                "wall_ns" => stat.wall_ns,
                unit => stat.work.get(unit).copied().unwrap_or(0),
            });
            if value > 0 {
                out.insert((name.to_string(), Vec::new()), value);
            }
        }
        for (phase, stat) in phases {
            let labels = || vec![phase_label(phase)];
            out.insert(("ebda_prof_phase_calls_total".into(), labels()), stat.calls);
            out.insert(("ebda_prof_phase_wall_ns".into(), labels()), stat.wall_ns);
            for (unit, &n) in &stat.work {
                let labels = vec![phase_label(phase), ("unit".to_string(), unit.clone())];
                out.insert(("ebda_prof_work_units_total".into(), labels), n);
            }
        }
        out
    })
}

/// Renders the global registry and the profiler's counters — the exact
/// body the `/metrics` endpoint serves, wall-clock (`_ns`) families
/// included. The profiler is read first and released before the
/// registry is locked, so a scrape never holds both locks.
pub fn render_global() -> String {
    global().render_with(RenderOptions::default(), profiler_counters())
}

// ---------------------------------------------------------------------------
// Exposition parsing — for `ebda monitor`, the loopback tests and the CI
// smoke job.
// ---------------------------------------------------------------------------

/// One parsed exposition sample: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name (`..._bucket` / `_sum` / `_count` suffixes included).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// Returns the value of a label, when present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a Prometheus text exposition into samples, skipping comment and
/// blank lines. Returns an error naming the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (head, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("no value in {line:?}"))?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().map_err(|e| format!("bad value {v:?}: {e}"))?,
    };
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated labels in {line:?}"))?;
            (name.to_string(), parse_labels(body)?)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("bad metric name {name:?}"));
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (k, after) = rest
            .split_once("=\"")
            .ok_or_else(|| format!("bad label syntax near {rest:?}"))?;
        // Find the closing quote, honoring backslash escapes.
        let mut val = String::new();
        let mut chars = after.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => val.push('\n'),
                    Some((_, e)) => val.push(e),
                    None => return Err("dangling escape in label value".into()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => val.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value near {after:?}"))?;
        labels.push((k.trim_matches(',').trim().to_string(), val));
        rest = after[end + 1..].trim_start_matches(',');
    }
    Ok(labels)
}

/// Reconstructs a quantile from parsed cumulative `_bucket` samples —
/// `(le, cumulative count)` pairs, `le = +Inf` included — mirroring
/// [`Histogram::quantile`] on the consumer side. `None` when empty.
///
/// Edge behavior is pinned: `q <= 0.0` returns the histogram minimum
/// bound (the `le` of the first occupied bucket) and `q >= 1.0` the
/// recorded max bound (the `le` of the last occupied bucket). Mass that
/// spilled past every finite edge into the `+Inf` bucket clamps to the
/// largest finite `le`, the tightest bound the exposition still holds.
pub fn quantile_from_buckets(buckets: &[(f64, f64)], q: f64) -> Option<f64> {
    // A `NaN` edge bounds nothing (and has no place in the order).
    let mut sorted: Vec<(f64, f64)> = buckets.iter().copied().filter(|b| !b.0.is_nan()).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = sorted.last().map(|&(_, c)| c)?;
    if total <= 0.0 {
        return None;
    }
    let mut finite_max = 0.0f64;
    if q <= 0.0 {
        for &(le, cum) in &sorted {
            if le.is_finite() {
                finite_max = le;
            }
            if cum > 0.0 {
                return Some(if le.is_finite() { le } else { finite_max });
            }
        }
        return Some(finite_max);
    }
    if q >= 1.0 {
        let mut last = 0.0f64;
        let mut prev = 0.0f64;
        for &(le, cum) in &sorted {
            if cum > prev {
                last = if le.is_finite() { le } else { finite_max };
            }
            if le.is_finite() {
                finite_max = le;
            }
            prev = cum;
        }
        return Some(last);
    }
    // `max`/`min` instead of `clamp`: a fractional total below one (a
    // mid-write scrape) must not trip clamp's `min <= max` assertion.
    let rank = (q * total).ceil().max(1.0).min(total);
    for &(le, cum) in &sorted {
        if le.is_finite() {
            finite_max = le;
        }
        if cum >= rank {
            return Some(if le.is_finite() { le } else { finite_max });
        }
    }
    Some(finite_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        for v in [
            0u64,
            1,
            7,
            15,
            16,
            17,
            31,
            32,
            100,
            255,
            256,
            1000,
            1 << 20,
            u64::MAX / 2,
        ] {
            let i = bucket_index(v);
            assert!(
                v <= bucket_upper(i),
                "v={v} i={i} upper={}",
                bucket_upper(i)
            );
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "v={v} below bucket {i}");
            }
        }
        // Indices are monotone in the value.
        let mut prev = 0;
        for v in 0..10_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev);
            prev = i;
        }
    }

    #[test]
    fn histogram_digest_and_bounds() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!((h.min, h.max), (1, 1000));
        let p50 = h.quantile(0.5).unwrap();
        assert!((468..=532).contains(&p50), "p50={p50}"); // 6.25% band
        assert_eq!(h.quantile(1.0), Some(1000));
        assert!(Histogram::new().quantile(0.5).is_none());
    }

    #[test]
    fn exposition_roundtrips_through_the_parser() {
        let reg = MetricsRegistry::new();
        reg.counter_add("ebda_test_total", &[("kind", "a\"b".into())], 3);
        reg.gauge_set("ebda_test_gauge", &[], 1.5);
        reg.observe("ebda_test_hist", &[], 7);
        let text = reg.render(RenderOptions::default());
        let samples = parse_exposition(&text).unwrap();
        let c = samples
            .iter()
            .find(|s| s.name == "ebda_test_total")
            .unwrap();
        assert_eq!(c.value, 3.0);
        assert_eq!(c.label("kind"), Some("a\"b"));
        assert!(samples.iter().any(|s| s.name == "ebda_test_hist_count"));
    }

    #[test]
    fn quantile_from_buckets_pins_both_edges() {
        let b = [(1.0, 2.0), (4.0, 5.0), (f64::INFINITY, 5.0)];
        // q=0 is the histogram minimum bound, q=1 the recorded max bound.
        assert_eq!(quantile_from_buckets(&b, 0.0), Some(1.0));
        assert_eq!(quantile_from_buckets(&b, 1.0), Some(4.0));
        // The mid-range path is untouched: rank 3 of 5 lands in (1, 4].
        assert_eq!(quantile_from_buckets(&b, 0.5), Some(4.0));
        // A leading empty bucket is not the minimum.
        let gap = [(1.0, 0.0), (4.0, 3.0), (f64::INFINITY, 3.0)];
        assert_eq!(quantile_from_buckets(&gap, 0.0), Some(4.0));
        // A trailing empty finite bucket is not the max.
        let tail = [(1.0, 2.0), (4.0, 5.0), (8.0, 5.0), (f64::INFINITY, 5.0)];
        assert_eq!(quantile_from_buckets(&tail, 1.0), Some(4.0));
    }

    #[test]
    fn quantile_from_buckets_clamps_inf_spill_to_finite_edges() {
        // Part of the mass lies past every finite edge: q=1 degrades to
        // the largest finite bound, the tightest statement still true.
        let spill = [(1.0, 2.0), (4.0, 4.0), (f64::INFINITY, 6.0)];
        assert_eq!(quantile_from_buckets(&spill, 1.0), Some(4.0));
        // All mass in +Inf: both edges degrade to the largest finite le.
        let inf_only = [(2.0, 0.0), (f64::INFINITY, 3.0)];
        assert_eq!(quantile_from_buckets(&inf_only, 0.0), Some(2.0));
        assert_eq!(quantile_from_buckets(&inf_only, 1.0), Some(2.0));
    }

    #[test]
    fn quantile_from_buckets_handles_empty_and_fractional_totals() {
        assert_eq!(quantile_from_buckets(&[], 0.5), None);
        let empty = [(1.0, 0.0), (f64::INFINITY, 0.0)];
        assert_eq!(quantile_from_buckets(&empty, 0.0), None);
        assert_eq!(quantile_from_buckets(&empty, 1.0), None);
        // A fractional sub-one total (a scrape racing a writer) must not
        // panic in the rank computation.
        let frac = [(1.0, 0.25), (f64::INFINITY, 0.25)];
        assert_eq!(quantile_from_buckets(&frac, 0.5), Some(1.0));
        // `le="NaN"` parses; the edge is ignored, not sorted (or panicked on).
        let nan = [(4.0, 1.0), (f64::NAN, 2.0), (f64::INFINITY, 1.0)];
        assert_eq!(quantile_from_buckets(&nan, 1.0), Some(4.0));
        assert_eq!(quantile_from_buckets(&[(f64::NAN, 1.0)], 0.5), None);
    }

    #[test]
    fn every_counter_family_has_one_source() {
        // Sorted and unique by family, and one family per source.
        assert!(COUNTERS.windows(2).all(|pair| pair[0].0 < pair[1].0));
        for &(name, phase, count) in COUNTERS {
            assert_eq!(counter_family(phase, count), Some(name), "{phase} {count}");
        }
        assert_eq!(counter_family("sim/run", "no_such_unit"), None);
    }
}
