//! Deterministic, mergeable **design-space coverage maps**.
//!
//! EbDa reduces deadlock freedom to a finite set of obligations —
//! partition-sequence memberships, admissible turn pairs, channel
//! dependency edges — and the campaigns in this workspace exercise
//! those obligations over thousands of generated and curated designs.
//! This module records *which* obligations and design-space regions a
//! run actually touched, the same instrument a fuzzer's edge map gives
//! a fuzzing campaign.
//!
//! A [`CoverageMap`] is a two-level table `family → point → hit count`.
//! The families the verdict paths and the simulator feed are listed in
//! [`FAMILIES`]:
//!
//! * `cdg_edge` — channel-dependency-graph edges visited, as
//!   class-level `FROM>TO` labels
//! * `turn_admitted` / `turn_denied` — turn pairs the routing relation
//!   admits or denies
//! * `obligation` — EbDa partition obligations discharged, keyed per
//!   theorem (`theorem1/p0`, `theorem3/p0>p2`, …)
//! * `escape_drain` — Duato escape channels proven drainable
//! * `gfp_pair` — hold/want channel-class pairs the brute greatest-
//!   fixed-point search enumerated
//! * `design_bin` — design-space bins over (dims, radix, wrap, vcs,
//!   turn-set density, verdict)
//! * `sim_event` — simulator event kinds observed during witness
//!   replays
//!
//! **Determinism.** Hit counts are additive, so [`CoverageMap::merge`]
//! is commutative and associative; campaigns still merge per-artifact
//! maps on the coordinating thread in stream/entry order (the same
//! policy as the run ledger) so the persisted file is byte-identical at
//! every `--threads` value. The canonical JSON form fixes key order via
//! `BTreeMap` and carries no wall-clock or thread stamp.
//!
//! Maps persist as single-line canonical JSON (format
//! [`COVERAGE_FORMAT`]) keyed by a caller-supplied identity — the
//! corpus content hash or the campaign seed — and summarize to a
//! 16-digit hex [`CoverageMap::digest`] embedded in ledger records.
//! `ebda coverage <report|diff|merge>` operates on the files, the
//! `ebda_coverage_*` metric families mirror the totals, and the
//! `/coverage` route of [`crate::http::MetricsServer`] serves the file
//! the server was started with.

use std::collections::BTreeMap;
use std::path::Path;

/// On-disk coverage file format version (the `format` field).
pub const COVERAGE_FORMAT: u64 = 1;

/// The canonical coverage families, in canonical (sorted) order.
/// Producers may only feed families from this list; [`CoverageMap::record`]
/// panics on unknown names so typos fail loudly in tests rather than
/// silently fragmenting the map.
pub const FAMILIES: &[&str] = &[
    "cdg_edge",
    "design_bin",
    "escape_drain",
    "gfp_pair",
    "obligation",
    "sim_event",
    "turn_admitted",
    "turn_denied",
];

/// A mergeable coverage registry: `family → point → hit count`.
///
/// See the module docs for the family vocabulary and the determinism
/// contract.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoverageMap {
    key: String,
    families: BTreeMap<String, BTreeMap<String, u64>>,
}

impl CoverageMap {
    /// An empty map whose identity is `key` (corpus content hash,
    /// campaign seed tag, or `""` for scratch maps).
    pub fn new(key: impl Into<String>) -> CoverageMap {
        CoverageMap {
            key: key.into(),
            families: BTreeMap::new(),
        }
    }

    /// The identity this map is keyed by.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Replaces the map identity (used when a campaign key is only
    /// known after the per-artifact maps were produced).
    pub fn set_key(&mut self, key: impl Into<String>) {
        self.key = key.into();
    }

    /// Records one hit of `point` under `family`.
    ///
    /// # Panics
    ///
    /// Panics when `family` is not in [`FAMILIES`].
    pub fn record(&mut self, family: &str, point: impl Into<String>) {
        self.record_n(family, point, 1);
    }

    /// Records `n` hits of `point` under `family`.
    ///
    /// # Panics
    ///
    /// Panics when `family` is not in [`FAMILIES`].
    pub fn record_n(&mut self, family: &str, point: impl Into<String>, n: u64) {
        assert!(
            FAMILIES.contains(&family),
            "unknown coverage family {family:?}"
        );
        if n == 0 {
            return;
        }
        *self
            .families
            .entry(family.to_string())
            .or_default()
            .entry(point.into())
            .or_insert(0) += n;
    }

    /// Hit count of `point` under `family` (0 when never recorded).
    pub fn hits(&self, family: &str, point: &str) -> u64 {
        self.families
            .get(family)
            .and_then(|m| m.get(point))
            .copied()
            .unwrap_or(0)
    }

    /// Number of distinct points covered under `family`.
    pub fn covered(&self, family: &str) -> usize {
        self.families.get(family).map_or(0, BTreeMap::len)
    }

    /// Total hits recorded under `family`.
    pub fn family_hits(&self, family: &str) -> u64 {
        self.families.get(family).map_or(0, |m| m.values().sum())
    }

    /// Total distinct points across all families.
    pub fn total_points(&self) -> usize {
        self.families.values().map(BTreeMap::len).sum()
    }

    /// The points covered under `family`, in canonical (sorted) order.
    pub fn points(&self, family: &str) -> impl Iterator<Item = (&str, u64)> {
        self.families
            .get(family)
            .into_iter()
            .flat_map(|m| m.iter().map(|(k, v)| (k.as_str(), *v)))
    }

    /// True when no hits have been recorded.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Adds every hit of `other` into `self`. Addition makes merge
    /// commutative and associative, which the determinism tests check.
    pub fn merge(&mut self, other: &CoverageMap) {
        for (family, points) in &other.families {
            let dst = self.families.entry(family.clone()).or_default();
            for (point, n) in points {
                *dst.entry(point.clone()).or_insert(0) += n;
            }
        }
    }

    /// Canonical single-line JSON form (no trailing newline). Key order
    /// is fixed by the underlying `BTreeMap`s; [`CoverageMap::from_json`]
    /// round-trips byte-exactly.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"format\":{COVERAGE_FORMAT},\"key\":{},\"families\":{{",
            crate::json::escape(&self.key)
        );
        for (fi, (family, points)) in self.families.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            out.push_str(&crate::json::escape(family));
            out.push_str(":{");
            for (pi, (point, n)) in points.iter().enumerate() {
                if pi > 0 {
                    out.push(',');
                }
                out.push_str(&crate::json::escape(point));
                out.push(':');
                out.push_str(&n.to_string());
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses the canonical JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field, or an
    /// unsupported `format` version.
    pub fn from_json(text: &str) -> Result<CoverageMap, String> {
        let v = crate::json::Value::parse(text)?;
        let format = v
            .get("format")
            .and_then(crate::json::Value::as_u64)
            .ok_or("missing field format")?;
        if format != COVERAGE_FORMAT {
            return Err(format!(
                "unsupported coverage format {format} (this build reads {COVERAGE_FORMAT})"
            ));
        }
        let key = v
            .get("key")
            .and_then(crate::json::Value::as_str)
            .ok_or("missing field key")?
            .to_string();
        let crate::json::Value::Obj(families) =
            v.get("families").ok_or("missing field families")?
        else {
            return Err("field families is not an object".to_string());
        };
        let mut map = CoverageMap::new(key);
        for (family, points) in families {
            if !FAMILIES.contains(&family.as_str()) {
                return Err(format!("unknown coverage family {family:?}"));
            }
            let crate::json::Value::Obj(points) = points else {
                return Err(format!("family {family} is not an object"));
            };
            for (point, n) in points {
                let n = n
                    .as_u64()
                    .ok_or_else(|| format!("hit count of {family}/{point} is not a u64"))?;
                map.record_n(family, point.clone(), n);
            }
        }
        Ok(map)
    }

    /// A 16-digit lowercase hex FNV-1a digest of the canonical JSON
    /// form — the short coverage identity embedded in ledger records.
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a64(self.to_json().as_bytes()))
    }

    /// Writes the map to `path` as canonical JSON plus a trailing
    /// newline.
    ///
    /// # Errors
    ///
    /// Returns I/O failures as strings.
    pub fn write_file(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Reads a map previously written with [`CoverageMap::write_file`].
    ///
    /// # Errors
    ///
    /// Returns I/O failures and parse errors as strings.
    pub fn read_file(path: &Path) -> Result<CoverageMap, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        CoverageMap::from_json(text.trim_end()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Compares two maps. Returns `None` when identical (key and all
    /// hit counts), otherwise a description of every family whose
    /// point sets or counts diverge — the check the cross-thread
    /// determinism tests and the CI coverage-smoke job run.
    pub fn diff(&self, other: &CoverageMap) -> Option<String> {
        if self == other {
            return None;
        }
        let mut lines = Vec::new();
        if self.key != other.key {
            lines.push(format!("key differs: {:?} vs {:?}", self.key, other.key));
        }
        for family in FAMILIES {
            let (a, b) = (self.covered(family), other.covered(family));
            let (ha, hb) = (self.family_hits(family), other.family_hits(family));
            if a != b || ha != hb {
                lines.push(format!(
                    "{family}: {a} points/{ha} hits vs {b} points/{hb} hits"
                ));
            } else if self.families.get(*family) != other.families.get(*family) {
                lines.push(format!("{family}: same totals, different points"));
            }
        }
        if lines.is_empty() {
            lines.push("maps differ in unknown field".to_string());
        }
        Some(lines.join("\n"))
    }

    /// Human-readable report: one line per family with distinct-point
    /// and hit totals, then the per-family point lists.
    pub fn report(&self) -> String {
        let mut out = format!(
            "coverage map key={} digest={}\n",
            if self.key.is_empty() { "-" } else { &self.key },
            self.digest()
        );
        out.push_str(&format!(
            "{:<14} {:>8} {:>12}\n",
            "family", "points", "hits"
        ));
        for family in FAMILIES {
            out.push_str(&format!(
                "{:<14} {:>8} {:>12}\n",
                family,
                self.covered(family),
                self.family_hits(family)
            ));
        }
        for family in FAMILIES {
            if self.covered(family) == 0 {
                continue;
            }
            out.push_str(&format!("\n[{family}]\n"));
            for (point, n) in self.points(family) {
                out.push_str(&format!("  {n:>8}  {point}\n"));
            }
        }
        out
    }

    /// Publishes the map totals to the global metrics registry:
    /// `ebda_coverage_points{family}` and `ebda_coverage_hits{family}`
    /// gauges per family, plus `ebda_coverage_points_total`. Gauges (not
    /// counters) so republishing an updated map is idempotent.
    pub fn publish_metrics(&self) {
        for family in FAMILIES {
            let labels = &[("family", (*family).to_string())];
            crate::metrics::gauge_set("ebda_coverage_points", labels, self.covered(family) as f64);
            crate::metrics::gauge_set(
                "ebda_coverage_hits",
                labels,
                self.family_hits(family) as f64,
            );
        }
        crate::metrics::gauge_set(
            "ebda_coverage_points_total",
            &[],
            self.total_points() as f64,
        );
    }
}

/// FNV-1a 64-bit. Duplicated from `ebda-core` because `ebda-obs` is the
/// bottom of the crate graph and cannot depend on it; the constants are
/// the standard ones, so digests agree with the corpus content hashes'
/// hash function.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A 16-digit lowercase hex FNV-1a digest of arbitrary bytes — used by
/// campaigns to derive a coverage-map identity from corpus entry hashes
/// without depending on `ebda-core`.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tag: &str) -> CoverageMap {
        let mut m = CoverageMap::new(format!("test-{tag}"));
        m.record("cdg_edge", "X1+>Y1+");
        m.record_n("cdg_edge", "Y1+>X1-", 3);
        m.record("obligation", "theorem1/p0");
        m.record("design_bin", "d2.r4.w0.v1.tlo.free");
        m
    }

    #[test]
    fn records_merges_and_round_trips_canonically() {
        let m = sample("rt");
        assert_eq!(m.hits("cdg_edge", "Y1+>X1-"), 3);
        assert_eq!(m.covered("cdg_edge"), 2);
        assert_eq!(m.family_hits("cdg_edge"), 4);
        assert_eq!(m.total_points(), 4);
        assert_eq!(m.covered("gfp_pair"), 0);

        let json = m.to_json();
        assert!(!json.contains('\n'), "canonical form is single-line");
        let back = CoverageMap::from_json(&json).expect("round trip");
        assert_eq!(back, m);
        assert_eq!(back.to_json(), json, "byte-exact round trip");
        assert_eq!(back.digest(), m.digest());

        let mut a = sample("rt");
        a.merge(&sample("rt"));
        assert_eq!(a.hits("cdg_edge", "Y1+>X1-"), 6);
        assert_eq!(a.total_points(), 4, "merge adds counts, not points");
    }

    #[test]
    fn merge_is_associative_on_disjoint_and_overlapping_maps() {
        let mut a = CoverageMap::new("k");
        a.record("cdg_edge", "X1+>Y1+");
        let mut b = CoverageMap::new("k");
        b.record("turn_admitted", "X1+>Y1-"); // disjoint family
        let mut c = CoverageMap::new("k");
        c.record("cdg_edge", "X1+>Y1+"); // overlaps a
        c.record_n("cdg_edge", "Y1->X1-", 2);

        // (a ∪ b) ∪ c  ==  a ∪ (b ∪ c), byte-for-byte.
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.to_json(), right.to_json());
        assert_eq!(left.hits("cdg_edge", "X1+>Y1+"), 2);

        // Commutativity too: c ∪ a == a ∪ c.
        let mut ca = c.clone();
        ca.merge(&a);
        let mut ac = a.clone();
        ac.merge(&c);
        assert_eq!(ca.to_json(), ac.to_json());
    }

    #[test]
    fn diff_reports_divergent_families_and_none_on_equal() {
        let m = sample("diff");
        assert_eq!(m.diff(&sample("diff")), None);
        let mut other = sample("diff");
        other.record("gfp_pair", "X1+>Y1+");
        let d = m.diff(&other).expect("maps differ");
        assert!(d.contains("gfp_pair"), "{d}");
        let mut renamed = sample("diff");
        renamed.set_key("elsewhere");
        let d = m.diff(&renamed).expect("keys differ");
        assert!(d.contains("key differs"), "{d}");
    }

    #[test]
    fn file_round_trip_and_format_guard() {
        let mut path = std::env::temp_dir();
        path.push(format!("ebda-coverage-test-{}", std::process::id()));
        let m = sample("file");
        m.write_file(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        let back = CoverageMap::read_file(&path).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_file(&path);

        assert!(CoverageMap::from_json("{\"format\":99,\"key\":\"\",\"families\":{}}").is_err());
        assert!(CoverageMap::from_json("not json").is_err());
        assert!(
            CoverageMap::from_json("{\"format\":1,\"key\":\"\",\"families\":{\"bogus\":{}}}")
                .is_err(),
            "unknown family names are rejected"
        );
    }

    #[test]
    fn report_lists_every_family_and_panics_on_unknown() {
        let m = sample("report");
        let r = m.report();
        for family in FAMILIES {
            assert!(r.contains(family), "report missing {family}: {r}");
        }
        assert!(r.contains(&m.digest()));
        let caught = std::panic::catch_unwind(|| {
            let mut m = CoverageMap::new("");
            m.record("typo_family", "x");
        });
        assert!(caught.is_err(), "unknown family must panic");
    }
}
