//! The versioned on-disk corpus format.
//!
//! A corpus directory holds one JSON file per entry, content-addressed as
//! `<canonical-hash>.json` — the same canonical hash the verdict cache
//! keys on, so a design's corpus file, cache slot, and CLI identity all
//! agree. Content addressing makes writes idempotent (re-archiving a
//! known witness is a no-op) and lets `load_dir` verify every file's name
//! against its recomputed hash, catching hand-edited entries loudly.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs;
use std::path::Path;

use ebda_obs::json;

use crate::entry::CorpusEntry;

/// Writes `entry` into `dir` (created if missing) under its
/// content-addressed file name. Returns the file name. Writing an entry
/// that already exists is a no-op, so archiving the same witness twice —
/// or from two thread counts — cannot diverge.
pub fn save_entry(dir: &Path, entry: &CorpusEntry) -> Result<String, String> {
    let file = entry.file_name();
    let path = dir.join(&file);
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    if !path.exists() {
        fs::write(&path, entry.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(file)
}

/// Loads every `*.json` entry in `dir`, sorted by file name (which is
/// hash order, hence deterministic). Fails loudly on unparsable entries,
/// on hash/content tampering (via [`CorpusEntry::from_json`]), and on
/// files whose name does not match their content hash.
pub fn load_dir(dir: &Path) -> Result<Vec<CorpusEntry>, String> {
    let mut names: Vec<String> = Vec::new();
    let listing =
        fs::read_dir(dir).map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?;
    for item in listing {
        let item = item.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let name = item.file_name().to_string_lossy().into_owned();
        if name.ends_with(".json") {
            names.push(name);
        }
    }
    names.sort();
    let mut entries = Vec::with_capacity(names.len());
    for name in names {
        let path = dir.join(&name);
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let (entry, hash) =
            CorpusEntry::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let hash = ebda_core::canonical::hash_hex(hash);
        if name.strip_suffix(".json") != Some(&hash) {
            return Err(format!(
                "{}: file name does not match content hash {hash}",
                path.display()
            ));
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// What both stats renderers report: each family's `(deadlock-free,
/// deadlocking)` split by family name, and the entries in hash order.
fn tally(entries: &[CorpusEntry]) -> (BTreeMap<&str, (usize, usize)>, Vec<&CorpusEntry>) {
    let mut families: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for e in entries {
        let slot = families.entry(&e.family).or_default();
        if e.expected.is_free() {
            slot.0 += 1;
        } else {
            slot.1 += 1;
        }
    }
    let mut by_hash: Vec<&CorpusEntry> = entries.iter().collect();
    by_hash.sort_by_key(|e| e.content_hash());
    (families, by_hash)
}

/// Renders deterministic corpus statistics: totals, per-family counts
/// with label splits, and per-entry lines in hash order. Contains no
/// timestamps or wall-clock data, so output is byte-identical across
/// runs and thread counts.
pub fn render_stats(entries: &[CorpusEntry]) -> String {
    let (families, by_hash) = tally(entries);
    let free: usize = families.values().map(|&(f, _)| f).sum();
    let mut out = format!(
        "corpus: {} entries ({free} deadlock-free, {} deadlocking)\n",
        entries.len(),
        entries.len() - free
    );
    for (family, (f, d)) in &families {
        out.push_str(&format!(
            "  family {family}: {} entries ({f} deadlock-free, {d} deadlocking)\n",
            f + d
        ));
    }
    for e in by_hash {
        out.push_str(&format!("  {}\n", e.summary()));
    }
    out
}

/// The machine-readable sibling of [`render_stats`]: the same totals,
/// per-family splits, and hash-ordered entry list as one JSON document
/// (a single line and a trailing newline). The top-level keys and the
/// family names are sorted; each family's and each listed entry's keys
/// come in a fixed order. Deterministic for a fixed corpus, so
/// dashboards and CI can diff it byte-for-byte.
pub fn render_stats_json(entries: &[CorpusEntry]) -> String {
    let mut out = String::new();
    write_stats_json(&mut out, entries).expect("writing to a String cannot fail");
    out
}

fn write_stats_json(out: &mut String, entries: &[CorpusEntry]) -> fmt::Result {
    // `key` is everything up to the value: `,"entries":`.
    fn count(out: &mut String, key: &str, n: usize) -> fmt::Result {
        out.push_str(key);
        json::write_u64(out, n as u64)
    }
    fn text(out: &mut String, key: &str, s: &str) -> fmt::Result {
        out.push_str(key);
        json::write_str(out, s)
    }
    let (families, by_hash) = tally(entries);
    let free: usize = families.values().map(|&(f, _)| f).sum();
    count(out, "{\"deadlock_free\":", free)?;
    count(out, ",\"deadlocking\":", entries.len() - free)?;
    count(out, ",\"entries\":", entries.len())?;
    out.push_str(",\"families\":{");
    for (i, (family, (f, d))) in families.into_iter().enumerate() {
        text(out, if i > 0 { "," } else { "" }, family)?;
        count(out, ":{\"entries\":", f + d)?;
        count(out, ",\"deadlock_free\":", f)?;
        count(out, ",\"deadlocking\":", d)?;
        out.push('}');
    }
    out.push_str("},\"listing\":");
    json::write_list(out, ",", by_hash, |out, e| {
        text(out, "{\"hash\":", &e.hash_hex())?;
        text(out, ",\"name\":", &e.name)?;
        text(out, ",\"family\":", &e.family)?;
        text(out, ",\"expected\":", e.expected.name())?;
        out.write_char('}')
    })?;
    out.push_str("}\n");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ebda-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trips_in_hash_order() {
        let dir = temp_dir("roundtrip");
        let entries = families::generate_family("mesh-xy");
        for e in &entries {
            let file = save_entry(&dir, e).unwrap();
            assert_eq!(file, format!("{}.json", e.hash_hex()));
        }
        // Saving again is a no-op, not an error.
        save_entry(&dir, &entries[0]).unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), entries.len());
        let mut sorted = entries.clone();
        sorted.sort_by_key(|e| e.file_name());
        assert_eq!(loaded, sorted);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misnamed_file_is_rejected() {
        let dir = temp_dir("misnamed");
        let entries = families::generate_family("mesh-xy");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("0000000000000000.json"), entries[0].to_json()).unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(err.contains("does not match content hash"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_are_deterministic_and_timestamp_free() {
        let mut entries = families::generate_family("mesh-xy");
        entries.extend(families::generate_family("merged-partitions"));
        let a = render_stats(&entries);
        let b = render_stats(&entries);
        assert_eq!(a, b);
        assert!(
            a.starts_with("corpus: 10 entries (5 deadlock-free, 5 deadlocking)\n"),
            "{a}"
        );
        assert!(
            a.contains("family mesh-xy: 5 entries (5 deadlock-free, 0 deadlocking)"),
            "{a}"
        );
    }

    #[test]
    fn json_stats_parse_back_and_agree_with_the_text_renderer() {
        let mut entries = families::generate_family("mesh-xy");
        entries.extend(families::generate_family("merged-partitions"));
        let text = render_stats_json(&entries);
        assert_eq!(text, render_stats_json(&entries), "nondeterministic");
        assert!(text.ends_with('\n'));
        let doc = ebda_obs::json::Value::parse(&text).unwrap();
        assert_eq!(doc.get("entries").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(doc.get("deadlock_free").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(doc.get("deadlocking").and_then(|v| v.as_u64()), Some(5));
        let mesh = doc.get("families").and_then(|f| f.get("mesh-xy")).unwrap();
        assert_eq!(mesh.get("entries").and_then(|v| v.as_u64()), Some(5));
        let listing = doc.get("listing").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(listing.len(), 10);
        assert!(listing[0].get("hash").and_then(|v| v.as_str()).is_some());
    }
}
