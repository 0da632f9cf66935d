//! The Chrome Trace Event Format checker the journey and profile tests
//! validate `ebda_obs::chrome` output with (`mod chrome_check;` under
//! `#[cfg(test)]` in `src/chrome.rs`, by path in the integration suites,
//! `src/bin/ebda.rs` and `crates/oracle/src/differential.rs`). It reads
//! with `ebda_obs::json`, which the obs crate's own tests name through
//! `extern crate self as ebda_obs`.

#![allow(dead_code)]

use ebda_obs::json::Value;
use std::collections::BTreeSet;

/// Counts from a validated trace, for tests and smoke checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// All events.
    pub total: usize,
    /// Complete events (`ph: "X"`).
    pub complete: usize,
    /// Flow events (`ph: "s"/"t"/"f"`).
    pub flows: usize,
    /// Instant events (`ph: "i"`).
    pub instants: usize,
    /// Metadata events (`ph: "M"`).
    pub metadata: usize,
    /// Distinct `(pid, tid)` tracks carrying non-metadata events.
    pub tracks: usize,
}

/// Parses `text` and checks it is structurally valid Trace Event Format:
/// a `traceEvents` array of objects where every event has a `ph`,
/// non-metadata events have numeric `ts`/`pid`/`tid`, complete events
/// have a `dur`, and flow events carry `id` + `cat`.
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let doc = Value::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary {
        total: events.len(),
        ..TraceSummary::default()
    };
    let mut tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let fail = |what: &str| format!("event {i}: {what}");
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| fail("missing ph"))?;
        let num = |key: &str| -> Result<u64, String> {
            e.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| fail(&format!("missing numeric {key}")))
        };
        if ph == "M" {
            summary.metadata += 1;
            e.get("name")
                .and_then(|v| v.as_str())
                .ok_or_else(|| fail("metadata without name"))?;
            continue;
        }
        num("ts")?;
        tracks.insert((num("pid")?, num("tid")?));
        match ph {
            "X" => {
                num("dur")?;
                summary.complete += 1;
            }
            "s" | "t" | "f" => {
                num("id")?;
                e.get("cat")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| fail("flow event without cat"))?;
                summary.flows += 1;
            }
            "i" => summary.instants += 1,
            other => return Err(fail(&format!("unknown phase '{other}'"))),
        }
    }
    summary.tracks = tracks.len();
    Ok(summary)
}
