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
//! every `--threads` value. The canonical JSON form fixes key order (the
//! tables are kept sorted) and carries no wall-clock or thread stamp.
//!
//! Maps persist as single-line canonical JSON (format
//! [`COVERAGE_FORMAT`]) keyed by a caller-supplied identity — the
//! corpus content hash or the campaign seed — and summarize to a
//! 16-digit hex [`CoverageMap::digest`] embedded in ledger records.
//! `ebda coverage <report|diff|merge>` operates on the files, the
//! `ebda_coverage_*` metric families mirror the totals, and the
//! `/coverage` route of [`crate::http::MetricsServer`] serves the file
//! the server was started with.

use crate::json;
use std::fmt;
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

/// Position of `family` in [`FAMILIES`].
fn family_index(family: &str) -> Option<usize> {
    FAMILIES.iter().position(|&f| f == family)
}

/// One family's points with their hit counts, sorted by point and
/// never holding a zero count. The point names lie end to end in one
/// string; `entries` says, in point order, where each name is and how
/// often it was hit. A campaign builds a small table per artifact and
/// merges it into a large one that already holds nearly every point: a
/// search compares bytes of one buffer, a new point is appended to it,
/// and a table costs two allocations however many points it holds.
#[derive(Debug, Clone, Default)]
struct Table {
    names: String,
    entries: Vec<Entry>,
}

/// A point of a [`Table`]: `names[start..end]`, hit `hits` times.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// [`head`] of the name: most searches are decided on it, without
    /// leaving the entries for the names.
    head: u64,
    start: usize,
    end: usize,
    hits: u64,
}

/// The first eight bytes of a point name as a big-endian number, a
/// shorter name padded with zeros: `head(a) < head(b)` implies `a < b`,
/// and names with equal heads are told apart by comparing them whole.
fn head(point: &str) -> u64 {
    let mut bytes = [0u8; 8];
    let n = point.len().min(8);
    bytes[..n].copy_from_slice(&point.as_bytes()[..n]);
    u64::from_be_bytes(bytes)
}

impl Table {
    fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries
            .iter()
            .map(|e| (&self.names[e.start..e.end], e.hits))
    }

    /// Where `point` is (`Ok`) or belongs (`Err`), at or after `from`.
    fn find(&self, from: usize, point: &str) -> Result<usize, usize> {
        let (names, head) = (self.names.as_bytes(), head(point));
        self.entries[from..]
            .binary_search_by(|e| {
                let by_head = e.head.cmp(&head);
                by_head.then_with(|| names[e.start..e.end].cmp(point.as_bytes()))
            })
            .map(|i| from + i)
            .map_err(|i| from + i)
    }

    /// Puts `point` where [`Table::find`] said it belongs.
    fn insert(&mut self, at: usize, point: &str, hits: u64) {
        let entry = self.named(point, hits);
        self.entries.insert(at, entry);
    }

    /// A new entry for `point`, whose name goes to the end of `names`.
    fn named(&mut self, point: &str, hits: u64) -> Entry {
        let start = self.names.len();
        self.names.push_str(point);
        Entry {
            head: head(point),
            start,
            end: self.names.len(),
            hits,
        }
    }

    /// Sets `point`'s count; zero removes the point.
    fn set(&mut self, point: &str, hits: u64) {
        match (self.find(0, point), hits) {
            (Ok(i), 0) => drop(self.entries.remove(i)),
            (Ok(i), _) => self.entries[i].hits = hits,
            (Err(_), 0) => {}
            (Err(i), _) => self.insert(i, point, hits),
        }
    }

    /// Adds `hits > 0` hits of `point`.
    fn add(&mut self, point: &str, hits: u64) {
        match self.find(0, point) {
            Ok(i) => self.entries[i].hits += hits,
            Err(i) => self.insert(i, point, hits),
        }
    }

    /// Adds every count of `other`. One pass finds each point, adding to
    /// those already here; only if some are new does a second pass open
    /// their gaps from the back, each entry moving once.
    fn merge(&mut self, other: &Table) {
        let mut new: Vec<(usize, Entry)> = Vec::new();
        let mut from = 0;
        for &entry in &other.entries {
            // Both sides ascend, so the search window only shrinks.
            match self.find(from, &other.names[entry.start..entry.end]) {
                Ok(i) => {
                    self.entries[i].hits += entry.hits;
                    from = i + 1;
                }
                Err(i) => {
                    new.push((i, entry));
                    from = i;
                }
            }
        }
        let mut read = self.entries.len();
        let mut write = read + new.len();
        self.entries.resize(write, Entry::default());
        for (at, entry) in new.into_iter().rev() {
            write -= read - at;
            self.entries.copy_within(at..read, write);
            read = at;
            write -= 1;
            self.entries[write] = self.named(&other.names[entry.start..entry.end], entry.hits);
        }
    }
}

/// Two tables are equal when they hold the same points with the same
/// counts, wherever the names happen to lie.
impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Table {}

/// A mergeable coverage registry: `family → point → hit count`.
///
/// See the module docs for the family vocabulary and the determinism
/// contract.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoverageMap {
    key: String,
    /// One point table per entry of [`FAMILIES`], in that order.
    families: [Table; FAMILIES.len()],
}

impl CoverageMap {
    /// An empty map whose identity is `key` (corpus content hash,
    /// campaign seed tag, or `""` for scratch maps).
    pub fn new(key: impl Into<String>) -> CoverageMap {
        CoverageMap {
            key: key.into(),
            families: Default::default(),
        }
    }

    /// The identity this map is keyed by.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Records one hit of `point` under `family`.
    ///
    /// # Panics
    ///
    /// Panics when `family` is not in [`FAMILIES`].
    pub fn record(&mut self, family: &str, point: impl AsRef<str>) {
        self.record_n(family, point, 1);
    }

    /// Records `n` hits of `point` under `family`.
    ///
    /// # Panics
    ///
    /// Panics when `family` is not in [`FAMILIES`].
    pub fn record_n(&mut self, family: &str, point: impl AsRef<str>, n: u64) {
        let Some(family) = family_index(family) else {
            panic!("unknown coverage family {family:?}");
        };
        if n == 0 {
            return;
        }
        self.families[family].add(point.as_ref(), n);
    }

    /// The table of `family`; `None` for a name not in [`FAMILIES`].
    fn table(&self, family: &str) -> Option<&Table> {
        family_index(family).map(|f| &self.families[f])
    }

    /// Number of distinct points covered under `family`.
    pub fn covered(&self, family: &str) -> usize {
        self.table(family).map_or(0, |t| t.entries.len())
    }

    /// Total hits recorded under `family`.
    pub fn family_hits(&self, family: &str) -> u64 {
        self.points(family).map(|(_, n)| n).sum()
    }

    /// Total distinct points across all families.
    pub fn total_points(&self) -> usize {
        self.families.iter().map(|t| t.entries.len()).sum()
    }

    /// The points covered under `family`, in canonical (sorted) order.
    pub fn points(&self, family: &str) -> impl Iterator<Item = (&str, u64)> {
        self.table(family).into_iter().flat_map(Table::iter)
    }

    /// Adds every hit of `other` into `self`. Addition makes merge
    /// commutative and associative, which the determinism tests check.
    /// A point `self` already holds costs a search and an addition; a
    /// merge that brings no new point allocates nothing.
    pub fn merge(&mut self, other: &CoverageMap) {
        for (dst, src) in self.families.iter_mut().zip(&other.families) {
            dst.merge(src);
        }
    }

    /// Writes the canonical form into `out`: a `String` for
    /// [`CoverageMap::to_json`], a hasher for [`CoverageMap::digest`].
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("{\"format\":")?;
        json::write_u64(out, COVERAGE_FORMAT)?;
        out.write_str(",\"key\":")?;
        json::write_str(out, &self.key)?;
        out.write_str(",\"families\":{")?;
        let covered = FAMILIES.iter().zip(&self.families);
        let covered = covered.filter(|(_, t)| !t.entries.is_empty());
        for (i, (family, points)) in covered.enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            json::write_str(out, family)?;
            out.write_str(":{")?;
            for (i, (point, n)) in points.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                json::write_str(out, point)?;
                out.write_char(':')?;
                json::write_u64(out, n)?;
            }
            out.write_char('}')?;
        }
        out.write_str("}}")
    }

    /// Canonical single-line JSON form (no trailing newline): families
    /// in [`FAMILIES`] order (which is sorted), points in sorted order,
    /// families without a point left out. [`CoverageMap::from_json`]
    /// round-trips byte-exactly.
    pub fn to_json(&self) -> String {
        let names: usize = self.families.iter().map(|t| t.names.len()).sum();
        let mut out = String::with_capacity(96 + self.key.len() + names + 8 * self.total_points());
        self.write_json(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Parses the canonical JSON form; keys may come in any order and a
    /// repeated key keeps its later value. Hit counts are read exactly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field, or an
    /// unsupported `format` version.
    pub fn from_json(text: &str) -> Result<CoverageMap, String> {
        let (mut format, mut key, mut families) = (None, None, None);
        let mut r = json::Reader::new(text);
        r.obj(|r, field| {
            match field {
                "format" => {
                    let version = r.u64()?;
                    if version != COVERAGE_FORMAT {
                        return Err(format!(
                            "unsupported coverage format {version} (this build reads {COVERAGE_FORMAT})"
                        ));
                    }
                    format = Some(version);
                }
                "key" => key = Some(r.str()?.into_owned()),
                "families" => {
                    let mut tables: [Table; FAMILIES.len()] = Default::default();
                    r.obj(|r, family| {
                        let Some(family) = family_index(family) else {
                            return Err(format!("unknown coverage family {family:?}"));
                        };
                        tables[family] = Table::default();
                        r.obj(|r, point| {
                            tables[family].set(point, r.u64()?);
                            Ok(())
                        })
                    })?;
                    families = Some(tables);
                }
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        r.end()?;
        format.ok_or("missing field format")?;
        Ok(CoverageMap {
            key: key.ok_or("missing field key")?,
            families: families.ok_or("missing field families")?,
        })
    }

    /// A 16-digit lowercase hex FNV-1a digest of the canonical JSON
    /// form — the short coverage identity embedded in ledger records.
    /// Hashed while written: the form is never built as a string.
    pub fn digest(&self) -> String {
        let mut hash = json::Fnv1a::new();
        self.write_json(&mut hash).expect("hashing cannot fail");
        format!("{:016x}", hash.finish())
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
    /// point sets or counts diverge.
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
            } else if self.table(family) != other.table(family) {
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

/// A 16-digit lowercase hex FNV-1a digest of arbitrary bytes — used by
/// campaigns to derive a coverage-map identity from corpus entry hashes.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash = json::Fnv1a::new();
    hash.update(bytes);
    format!("{:016x}", hash.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hit count of `point` under `family` (0 when never recorded).
    fn hits(m: &CoverageMap, family: &str, point: &str) -> u64 {
        m.points(family)
            .find(|&(p, _)| p == point)
            .map_or(0, |(_, n)| n)
    }

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
        assert_eq!(hits(&m, "cdg_edge", "Y1+>X1-"), 3);
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
        assert_eq!(hits(&a, "cdg_edge", "Y1+>X1-"), 6);
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
        assert_eq!(hits(&left, "cdg_edge", "X1+>Y1+"), 2);

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
        renamed.key = "elsewhere".into();
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
    fn tables_agree_with_a_tree_model_under_random_records_and_merges() {
        use std::collections::BTreeMap;
        let mut rng = crate::Rng64::new(19);
        let mut random_map = |points: usize, span: usize| {
            let mut map = CoverageMap::new("");
            let mut model = BTreeMap::new();
            for _ in 0..points {
                let point = format!("p{}", rng.gen_index(span));
                let n = 1 + rng.gen_index(3) as u64;
                map.record_n("gfp_pair", point.as_str(), n);
                *model.entry(point).or_insert(0u64) += n;
            }
            (map, model)
        };
        for round in 0..200 {
            // Small into large, large into small, disjoint and equal.
            let (mut a, mut model) = random_map(round % 40, 1 + round % 60);
            let (b, other) = random_map((round * 7) % 50, 1 + (round * 3) % 90);
            a.merge(&b);
            for (point, n) in other {
                *model.entry(point).or_insert(0) += n;
            }
            let got: Vec<(&str, u64)> = a.points("gfp_pair").collect();
            let want: Vec<(&str, u64)> = model.iter().map(|(p, n)| (p.as_str(), *n)).collect();
            assert_eq!(got, want, "round {round}");
            assert_eq!(
                hits(&a, "gfp_pair", "p0"),
                model.get("p0").copied().unwrap_or(0)
            );
        }
    }

    #[test]
    fn families_are_indexed_in_sorted_order() {
        // `to_json` walks the tables in `FAMILIES` order and calls that
        // canonical; `record` finds a table by position in the list.
        assert!(FAMILIES.windows(2).all(|w| w[0] < w[1]));
        let mut m = CoverageMap::new("");
        for family in FAMILIES.iter().rev() {
            m.record(family, format!("{family}-point"));
        }
        let json = m.to_json();
        let at: Vec<usize> = FAMILIES.iter().map(|f| json.find(f).unwrap()).collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{json}");
        for family in FAMILIES {
            assert_eq!(hits(&m, family, &format!("{family}-point")), 1);
        }
    }

    #[test]
    fn parsing_keeps_the_later_of_a_repeated_key_and_reads_counts_exactly() {
        let text = "{\"families\":{\"cdg_edge\":{\"gone\":1}},\"key\":\"a\",\"extra\":[1,{}],\
                    \"families\":{\"gfp_pair\":{\"lost\":3},\"gfp_pair\":{\"p\":1,\"p\":18446744073709551615,\
                    \"q\":2,\"q\":0}},\"key\":\"b\",\"format\":1}";
        let m = CoverageMap::from_json(text).unwrap();
        assert_eq!(
            m.to_json(),
            "{\"format\":1,\"key\":\"b\",\"families\":{\"gfp_pair\":{\"p\":18446744073709551615}}}"
        );
        assert_eq!(CoverageMap::from_json(&m.to_json()).unwrap(), m);
        let err = CoverageMap::from_json(&m.to_json().replace("615}", "616}")).unwrap_err();
        assert!(err.contains("does not fit"), "{err}");
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
