//! Live metrics: log-bucketed histograms, counters and gauges in a
//! process-wide [`MetricsRegistry`], rendered as Prometheus text
//! exposition format (version 0.0.4) for the `/metrics` endpoint in
//! [`crate::http`].
//!
//! The registry complements the flight recorder (`crate::recorder`) and
//! the self-profiler ([`crate::prof`]): the recorder is a post-mortem
//! event log of *one* run, the profiler aggregates phase timings and work
//! units (and mirrors them here as the `ebda_prof_*` families when both
//! are on), and this module is the *live*, scrapeable view of a whole
//! campaign — thousands of simulations, sweep points or oracle artifacts
//! — while it executes.
//!
//! Like the profiler, the global registry is off by default: until
//! [`set_enabled`] is called every emission is a single relaxed atomic
//! load. Instrumented code batches locally (e.g. the sim engine fills one
//! [`Histogram`] per run) and flushes under one lock, so hot paths never
//! contend.
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
        self.observe_n(v, 1);
    }

    /// Records `n` identical observations.
    pub(crate) fn observe_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = bucket_index(v);
        if self.buckets.len() <= i {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += n;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
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
        let inner = self.lock();
        let mut out = String::new();
        let skip =
            |name: &str| opts.deterministic && (name.ends_with("_ns") || name == "ebda_build_info");

        let mut last_family = String::new();
        for ((name, labels), value) in &inner.counters {
            if skip(name) {
                continue;
            }
            if *name != last_family {
                let _ = writeln!(out, "# TYPE {name} counter");
                last_family.clone_from(name);
            }
            let _ = writeln!(out, "{name}{} {value}", render_labels(labels, None));
        }
        last_family.clear();
        for ((name, labels), value) in &inner.gauges {
            if skip(name) {
                continue;
            }
            if *name != last_family {
                let _ = writeln!(out, "# TYPE {name} gauge");
                last_family.clone_from(name);
            }
            let _ = writeln!(
                out,
                "{name}{} {}",
                render_labels(labels, None),
                render_f64(*value)
            );
        }
        last_family.clear();
        for ((name, labels), h) in &inner.histograms {
            if skip(name) {
                continue;
            }
            if *name != last_family {
                let _ = writeln!(out, "# TYPE {name} histogram");
                last_family.clone_from(name);
            }
            let mut cum = 0u64;
            for (upper, count) in h.nonzero_buckets() {
                cum += count;
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cum}",
                    render_labels(labels, Some(&upper.to_string()))
                );
            }
            let _ = writeln!(
                out,
                "{name}_bucket{} {cum}",
                render_labels(labels, Some("+Inf"))
            );
            let _ = writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum());
            let _ = writeln!(
                out,
                "{name}_count{} {}",
                render_labels(labels, None),
                h.count()
            );
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

/// Globally enables or disables metrics collection. The profiler is
/// switched separately ([`crate::prof::set_enabled`]); its `ebda_prof_*`
/// families appear only when both are on.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metrics collection is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `delta` to a global counter (no-op when disabled).
pub fn counter_add(name: &str, labels: &[(&str, String)], delta: u64) {
    if enabled() {
        global().counter_add(name, labels, delta);
    }
}

/// Sets a global gauge (no-op when disabled).
pub fn gauge_set(name: &str, labels: &[(&str, String)], value: f64) {
    if enabled() {
        global().gauge_set(name, labels, value);
    }
}

/// Records one observation into a global histogram (no-op when disabled).
pub fn observe(name: &str, labels: &[(&str, String)], value: u64) {
    if enabled() {
        global().observe(name, labels, value);
    }
}

/// Folds a local histogram into a global one (no-op when disabled).
pub fn merge_histogram(name: &str, labels: &[(&str, String)], h: &Histogram) {
    if enabled() {
        global().merge_histogram(name, labels, h);
    }
}

/// Renders the global registry — the exact body the `/metrics` endpoint
/// serves, wall-clock (`_ns`) families included.
pub fn render_global() -> String {
    global().render(RenderOptions::default())
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
    let mut sorted: Vec<(f64, f64)> = buckets.to_vec();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le labels are ordered"));
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
    }
}
