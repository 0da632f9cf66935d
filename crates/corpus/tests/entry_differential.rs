//! Corpus entries against the code that wrote and read them before, and
//! against hostile input.
//!
//! `entry_ref/mod.rs` is `CorpusEntry::{to_json, from_json}` as they
//! were (a `format!` per line, the owned tree); `crates/obs/tests` holds
//! the tree parser under them and the hostile variations. Over the 50
//! entries of `corpus/seed/` and every generator family: the same bytes
//! out, the same entry back from either reader, the seed files
//! re-serialize to themselves; and on hostile variations the library's
//! reader never panics and agrees with the tree reader, listed
//! exceptions apart.

mod entry_ref;
#[path = "../../obs/tests/hostile/mod.rs"]
mod hostile;
#[path = "../../obs/tests/json_ref/mod.rs"]
mod json_ref;

use ebda_corpus::CorpusEntry;

fn seed_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/seed")
}

#[test]
fn entries_write_and_read_as_they_did() {
    let mut entries = ebda_corpus::store::load_dir(&seed_dir()).expect("corpus/seed loads");
    assert_eq!(entries.len(), 50);
    // The files on disk are what the writer produces today.
    for entry in &entries {
        let on_disk = std::fs::read_to_string(seed_dir().join(entry.file_name())).unwrap();
        assert_eq!(entry.to_json(), on_disk, "{}", entry.name);
    }
    // Names and provenance notes that need every kind of escape.
    let mut awkward = entries[0].clone();
    awkward.name = hostile::AWKWARD.into();
    awkward.provenance = awkward.name.repeat(3);
    entries.push(awkward);
    for entry in &entries {
        let text = entry.to_json();
        assert_eq!(text, entry_ref::to_json(entry), "{}", entry.name);
        assert_eq!(CorpusEntry::from_json(&text).as_ref(), Ok(entry));
        assert_eq!(entry_ref::from_json(&text).as_ref(), Ok(entry));
    }
}

/// `entry_ref::from_json`, its `Turn::new` panic on a turn `a>a` read as
/// a refusal.
fn old_from_json(text: &str) -> Result<CorpusEntry, String> {
    std::panic::catch_unwind(|| entry_ref::from_json(text))
        .unwrap_or_else(|_| Err("panicked".to_string()))
}

#[test]
fn entries_survive_hostile_input_and_agree_with_the_tree_reader() {
    // A design with plain classes, one with parity classes, one with
    // coordinate classes, one with no design at all.
    let wanted = [
        "mesh-xy-00",
        "turn-model-03",
        "torus-dateline-02",
        "cyclic-turns-04",
    ];
    let entries = ebda_corpus::store::load_dir(&seed_dir()).expect("corpus/seed loads");
    let valid = wanted
        .iter()
        .map(|name| {
            let entry = entries.iter().find(|e| e.name == *name);
            entry.expect("seed entry").to_json()
        })
        .collect();
    hostile::differential(
        valid,
        1200,
        CorpusEntry::from_json,
        old_from_json,
        |entry| {
            let text = entry.to_json();
            let back = CorpusEntry::from_json(&text).expect("own bytes parse");
            assert_eq!((&back, back.to_json()), (entry, text));
        },
    );
}
