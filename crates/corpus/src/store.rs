//! The versioned on-disk corpus format.
//!
//! A corpus directory holds one JSON file per entry, content-addressed as
//! `<canonical-hash>.json` — the same canonical hash the verdict cache
//! keys on, so a design's corpus file, cache slot, and CLI identity all
//! agree. Content addressing makes writes idempotent (re-archiving a
//! known witness is a no-op) and lets `load_dir` verify every file's name
//! against its recomputed hash, catching hand-edited entries loudly.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

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

/// Renders deterministic corpus statistics: totals, per-family counts
/// with label splits, and per-entry lines in hash order. Contains no
/// timestamps or wall-clock data, so output is byte-identical across
/// runs and thread counts.
pub fn render_stats(entries: &[CorpusEntry]) -> String {
    let mut out = String::new();
    let free = entries.iter().filter(|e| e.expected.is_free()).count();
    out.push_str(&format!(
        "corpus: {} entries ({} deadlock-free, {} deadlocking)\n",
        entries.len(),
        free,
        entries.len() - free
    ));
    let mut families: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for e in entries {
        let slot = families.entry(&e.family).or_insert((0, 0));
        if e.expected.is_free() {
            slot.0 += 1;
        } else {
            slot.1 += 1;
        }
    }
    for (family, (f, d)) in &families {
        out.push_str(&format!(
            "  family {family}: {} entries ({f} deadlock-free, {d} deadlocking)\n",
            f + d
        ));
    }
    let mut by_hash: Vec<&CorpusEntry> = entries.iter().collect();
    by_hash.sort_by_key(|e| e.content_hash());
    for e in by_hash {
        out.push_str(&format!("  {}\n", e.summary()));
    }
    out
}

/// The machine-readable sibling of [`render_stats`]: the same totals,
/// per-family splits, and hash-ordered entry list as one canonical JSON
/// document (single line, sorted keys, trailing newline). Deterministic
/// for a fixed corpus, so dashboards and CI can diff it byte-for-byte.
pub fn render_stats_json(entries: &[CorpusEntry]) -> String {
    use ebda_obs::json::escape;
    let free = entries.iter().filter(|e| e.expected.is_free()).count();
    let mut families: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for e in entries {
        let slot = families.entry(&e.family).or_insert((0, 0));
        if e.expected.is_free() {
            slot.0 += 1;
        } else {
            slot.1 += 1;
        }
    }
    let family_fields: Vec<String> = families
        .iter()
        .map(|(family, (f, d))| {
            format!(
                "{}:{{\"entries\":{},\"deadlock_free\":{f},\"deadlocking\":{d}}}",
                escape(family),
                f + d
            )
        })
        .collect();
    let mut by_hash: Vec<&CorpusEntry> = entries.iter().collect();
    by_hash.sort_by_key(|e| e.content_hash());
    let entry_fields: Vec<String> = by_hash
        .iter()
        .map(|e| {
            format!(
                "{{\"hash\":\"{}\",\"name\":{},\"family\":{},\"expected\":\"{}\"}}",
                e.hash_hex(),
                escape(&e.name),
                escape(&e.family),
                if e.expected.is_free() {
                    "deadlock-free"
                } else {
                    "deadlocking"
                }
            )
        })
        .collect();
    format!(
        "{{\"deadlock_free\":{free},\"deadlocking\":{},\"entries\":{},\"families\":{{{}}},\"listing\":[{}]}}\n",
        entries.len() - free,
        entries.len(),
        family_fields.join(","),
        entry_fields.join(",")
    )
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
