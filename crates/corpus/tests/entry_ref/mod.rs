//! `CorpusEntry::{to_json, from_json}` as they were before the pull
//! reader and the buffer writers: a `format!` per line with `join`ed
//! `Vec<String>`s, and a reader over the owned tree. Moved here verbatim
//! (methods became functions of `e`) as the differential reference of
//! `tests/entry_differential.rs`; the tree parser they sit on is
//! `crates/obs/tests/json_ref`.
//!
//! As in the library then, a turn `a>a` makes `Turn::new` panic in
//! `from_json`; the differential reads that panic as a refusal.

#![allow(dead_code)]

use super::json_ref::{escape, Value};
use ebda_core::{Channel, Partition, PartitionSeq, Turn, TurnSet};
use ebda_corpus::entry::{CorpusEntry, ExpectedVerdict, FORMAT_VERSION};

/// Serializes the entry as the versioned on-disk JSON document. Keys
/// are written in a fixed order and the rendering has no wall-clock
/// or environment dependence, so the bytes are stable.
pub fn to_json(e: &CorpusEntry) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"format\": {FORMAT_VERSION},\n"));
    out.push_str(&format!("  \"hash\": {},\n", escape(&e.hash_hex())));
    out.push_str(&format!("  \"name\": {},\n", escape(&e.name)));
    out.push_str(&format!("  \"family\": {},\n", escape(&e.family)));
    out.push_str(&format!(
        "  \"radix\": [{}],\n",
        join(e.radix.iter().map(|r| r.to_string()))
    ));
    out.push_str(&format!(
        "  \"wrap\": [{}],\n",
        join(e.wrap.iter().map(|w| w.to_string()))
    ));
    out.push_str(&format!(
        "  \"vcs\": [{}],\n",
        join(e.vcs.iter().map(|v| v.to_string()))
    ));
    out.push_str(&format!(
        "  \"universe\": [{}],\n",
        join(e.universe.iter().map(|c| escape(&c.to_string())))
    ));
    out.push_str(&format!(
        "  \"turns\": [{}],\n",
        join(
            e.turns
                .iter()
                .map(|t| escape(&format!("{}>{}", t.from, t.to)))
        )
    ));
    match &e.design {
        Some(seq) => {
            let parts: Vec<String> = seq
                .partitions()
                .iter()
                .map(|p| format!("[{}]", join(p.iter().map(|c| escape(&c.to_string())))))
                .collect();
            out.push_str(&format!("  \"design\": [{}],\n", parts.join(", ")));
        }
        None => out.push_str("  \"design\": null,\n"),
    }
    out.push_str(&format!("  \"expected\": {},\n", escape(e.expected.name())));
    out.push_str(&format!("  \"ebda_certified\": {},\n", e.ebda_certified));
    out.push_str(&format!("  \"provenance\": {}\n", escape(&e.provenance)));
    out.push_str("}\n");
    out
}

/// Parses the on-disk JSON document, verifying the format version and
/// that the embedded hash matches the recomputed canonical hash (a
/// tampered or hand-mangled entry is rejected loudly).
pub fn from_json(text: &str) -> Result<CorpusEntry, String> {
    let v = Value::parse(text).map_err(|e| format!("corpus entry: bad JSON: {e}"))?;
    let format = v
        .get("format")
        .and_then(Value::as_u64)
        .ok_or("corpus entry: missing \"format\"")?;
    if format != FORMAT_VERSION {
        return Err(format!(
            "corpus entry: format v{format} not supported (this build reads v{FORMAT_VERSION})"
        ));
    }
    let str_field = |key: &str| -> Result<String, String> {
        Ok(v.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("corpus entry: missing \"{key}\""))?
            .to_string())
    };
    let name = str_field("name")?;
    let family = str_field("family")?;
    let radix: Vec<usize> = num_array(&v, "radix")?;
    let wrap: Vec<bool> = v
        .get("wrap")
        .and_then(Value::as_arr)
        .ok_or("corpus entry: missing \"wrap\"")?
        .iter()
        .map(|x| match x {
            Value::Bool(b) => Ok(*b),
            _ => Err("corpus entry: non-boolean wrap flag".to_string()),
        })
        .collect::<Result<_, _>>()?;
    let vcs: Vec<u8> = num_array(&v, "vcs")?;
    let universe: Vec<Channel> = str_array(&v, "universe")?
        .iter()
        .map(|s| Channel::parse(s).map_err(|e| format!("corpus entry: channel {s:?}: {e}")))
        .collect::<Result<_, _>>()?;
    let turns: TurnSet = str_array(&v, "turns")?
        .iter()
        .map(|s| parse_turn(s))
        .collect::<Result<Vec<Turn>, String>>()?
        .into_iter()
        .collect();
    let design = match v.get("design") {
        None | Some(Value::Null) => None,
        Some(Value::Arr(parts)) => {
            let mut partitions = Vec::new();
            for p in parts {
                let channels: Vec<Channel> = p
                    .as_arr()
                    .ok_or("corpus entry: design partition must be an array")?
                    .iter()
                    .map(|c| {
                        let s = c
                            .as_str()
                            .ok_or("corpus entry: non-string design channel")?;
                        Channel::parse(s)
                            .map_err(|e| format!("corpus entry: design channel {s:?}: {e}"))
                    })
                    .collect::<Result<_, String>>()?;
                partitions.push(
                    Partition::from_channels(channels)
                        .map_err(|e| format!("corpus entry: bad design partition: {e}"))?,
                );
            }
            Some(PartitionSeq::from_partitions(partitions))
        }
        Some(_) => return Err("corpus entry: \"design\" must be an array or null".into()),
    };
    let expected = ExpectedVerdict::parse(&str_field("expected")?)
        .ok_or("corpus entry: bad \"expected\" verdict")?;
    let ebda_certified = match v.get("ebda_certified") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("corpus entry: missing \"ebda_certified\"".into()),
    };
    let provenance = str_field("provenance")?;
    let entry = CorpusEntry {
        name,
        family,
        radix,
        wrap,
        vcs,
        universe,
        turns,
        design,
        expected,
        ebda_certified,
        provenance,
    };
    let declared = str_field("hash")?;
    let actual = entry.hash_hex();
    if declared != actual {
        return Err(format!(
            "corpus entry {}: declared hash {declared} but content hashes to {actual}",
            entry.name
        ));
    }
    Ok(entry)
}

fn join(items: impl IntoIterator<Item = String>) -> String {
    items.into_iter().collect::<Vec<_>>().join(", ")
}

fn num_array<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<Vec<T>, String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("corpus entry: missing \"{key}\""))?
        .iter()
        .map(|x| {
            x.as_u64()
                .and_then(|n| T::try_from(n).ok())
                .ok_or_else(|| format!("corpus entry: bad number in \"{key}\""))
        })
        .collect()
}

fn str_array<'a>(v: &'a Value, key: &str) -> Result<Vec<&'a str>, String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("corpus entry: missing \"{key}\""))?
        .iter()
        .map(|x| {
            x.as_str()
                .ok_or_else(|| format!("corpus entry: non-string item in \"{key}\""))
        })
        .collect()
}

/// Parses the `from>to` turn rendering (the same notation `ebda certify
/// --turns` accepts).
fn parse_turn(s: &str) -> Result<Turn, String> {
    let (from, to) = s
        .split_once('>')
        .ok_or_else(|| format!("corpus entry: turn {s:?} needs a '>'"))?;
    let from = Channel::parse(from.trim()).map_err(|e| format!("corpus entry: turn {s:?}: {e}"))?;
    let to = Channel::parse(to.trim()).map_err(|e| format!("corpus entry: turn {s:?}: {e}"))?;
    Ok(Turn::new(from, to))
}
