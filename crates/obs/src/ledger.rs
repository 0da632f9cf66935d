//! An append-only JSONL **run ledger**: one record per verdict, written
//! by every oracle campaign, corpus campaign and CLI verification that
//! opts in with `--ledger FILE`.
//!
//! Each line is a self-contained JSON object carrying the run metadata
//! (source, git revision, seed), the verdict, the deterministic work
//! counters of the brute-force path (`gfp_sweeps`, `wait_pairs`) and —
//! embedded verbatim as a JSON object — the full provenance document
//! whose certificate or witness `ebda check-cert` re-validates without
//! re-running the prover.
//!
//! **Formats.** Format 2 writes the provenance inline, as the object it
//! is, whenever its text is exactly one object on one line; any other
//! text (and every format-1 record) is an escaped string. Reading takes
//! an inline object as a slice of the line, with nothing to unescape,
//! and reads format 1 as before.
//!
//! **Byte determinism.** Campaigns assemble records in stream/entry
//! order on the coordinating thread, so ledger bytes are identical at
//! any `--threads` value — the determinism tests diff the files
//! byte-for-byte. For that reason a record deliberately carries *no*
//! worker-thread stamp and no wall-clock field (the same policy as the
//! sweep CSVs and the profiler's `counters_text`): thread count and
//! timing are reported on stderr at append time and through the
//! `ebda_ledger_*` metric families instead.
//!
//! The ledger is strictly append-only: [`append`] assigns each new
//! record the next index after the records already on disk and never
//! rewrites an existing line. `ebda ledger <list|show|diff>` renders
//! ledgers, `ebda explain <hash>` narrates one record, and a `/ledger`
//! route on [`crate::http::MetricsServer`] serves the file the server
//! was started with as a JSON array.

use crate::json;
use std::fmt;
use std::io::{BufRead as _, Write as _};
use std::path::Path;

/// On-disk ledger format version (the `format` field of every record).
/// Lines of format 1, which always escape the provenance, still read.
pub const LEDGER_FORMAT: u64 = 2;

/// One verdict in the run ledger. See the module docs for the field
/// policy (no thread stamp, no wall clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerRecord {
    /// Position in the ledger file, assigned by [`append`].
    pub index: u64,
    /// Producer: `"oracle"`, `"corpus"` or `"cli"`.
    pub source: String,
    /// Human-readable problem name (artifact summary, corpus entry name
    /// or the CLI design string).
    pub name: String,
    /// Short git revision of the producing build (`"unknown"` outside a
    /// checkout).
    pub git_rev: String,
    /// Campaign seed; 0 for corpus and CLI records, which are
    /// content-addressed rather than seeded.
    pub seed: u64,
    /// `"deadlock-free"` or `"deadlocking"`.
    pub verdict: String,
    /// `"certificate"` for positive records, `"witness"` for negative.
    pub evidence: String,
    /// Canonical content hash of the (topology, turn-set) pair, in the
    /// corpus' 16-digit lowercase hex.
    pub hash: String,
    /// Greatest-fixed-point sweeps the brute path needed (deterministic
    /// work counter).
    pub gfp_sweeps: u64,
    /// Admissible hold/want pairs the brute path enumerated
    /// (deterministic work counter).
    pub wait_pairs: u64,
    /// [`crate::coverage::CoverageMap::digest`] of the coverage this
    /// verdict contributed, or `""` when the run did not track coverage.
    pub coverage: String,
    /// The single-line provenance JSON document, embedded verbatim: as
    /// an object when it is one (see the module docs), else as a string.
    pub provenance: String,
}

impl LedgerRecord {
    /// Renders the record as its canonical single-line JSON form (no
    /// trailing newline). Key order is fixed; [`from_line`] round-trips
    /// byte-exactly.
    ///
    /// [`from_line`]: LedgerRecord::from_line
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(self.provenance.len() + 320);
        self.write_line(self.index, &mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// [`LedgerRecord::to_line`] with `index` in place of the record's
    /// own, so [`append`] stamps positions without cloning records.
    fn write_line<W: fmt::Write>(&self, index: u64, out: &mut W) -> fmt::Result {
        use json::Field::{Str, U64};
        let fields = [
            ("format", U64(LEDGER_FORMAT)),
            ("index", U64(index)),
            ("source", Str(&self.source)),
            ("name", Str(&self.name)),
            ("git_rev", Str(&self.git_rev)),
            ("seed", U64(self.seed)),
            ("verdict", Str(&self.verdict)),
            ("evidence", Str(&self.evidence)),
            ("hash", Str(&self.hash)),
            ("gfp_sweeps", U64(self.gfp_sweeps)),
            ("wait_pairs", U64(self.wait_pairs)),
            ("coverage", Str(&self.coverage)),
        ];
        out.write_char('{')?;
        json::write_members(out, ",", fields)?;
        out.write_str(",\"provenance\":")?;
        if json::embeddable_object(&self.provenance) {
            out.write_str(&self.provenance)?;
        } else {
            json::write_str(out, &self.provenance)?;
        }
        out.write_char('}')
    }

    /// Parses one ledger line of either format. Keys may come in any
    /// order, unknown keys are skipped, and every integer is read
    /// exactly: a `seed` of `u64::MAX` round-trips, a number that does
    /// not fit `u64` is an error. The provenance is an object, kept as
    /// its text, or a string.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field, or an
    /// unsupported `format` version.
    pub fn from_line(line: &str) -> Result<LedgerRecord, String> {
        let mut format = None;
        let (mut index, mut seed, mut gfp_sweeps, mut wait_pairs) = (None, None, None, None);
        let (mut source, mut name, mut git_rev, mut verdict) = (None, None, None, None);
        let (mut evidence, mut hash, mut coverage, mut provenance) = (None, None, None, None);
        let mut r = json::Reader::new(line);
        r.obj(|r, key| {
            let text = |r: &mut json::Reader| r.str().map(|s| Some(s.into_owned()));
            match key {
                "format" => {
                    let version = r.u64()?;
                    if !(1..=LEDGER_FORMAT).contains(&version) {
                        return Err(format!(
                            "unsupported ledger format {version} (this build reads 1 to {LEDGER_FORMAT})"
                        ));
                    }
                    format = Some(version);
                }
                "index" => index = Some(r.u64()?),
                "seed" => seed = Some(r.u64()?),
                "gfp_sweeps" => gfp_sweeps = Some(r.u64()?),
                "wait_pairs" => wait_pairs = Some(r.u64()?),
                "source" => source = text(r)?,
                "name" => name = text(r)?,
                "git_rev" => git_rev = text(r)?,
                "verdict" => verdict = text(r)?,
                "evidence" => evidence = text(r)?,
                "hash" => hash = text(r)?,
                "coverage" => coverage = text(r)?,
                "provenance" => {
                    provenance = match r.peek()? {
                        json::Kind::Obj => Some(r.object_text()?.to_owned()),
                        _ => text(r)?,
                    }
                }
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        r.end()?;
        let missing = |key: &str| format!("missing field {key}");
        format.ok_or_else(|| missing("format"))?;
        Ok(LedgerRecord {
            index: index.ok_or_else(|| missing("index"))?,
            source: source.ok_or_else(|| missing("source"))?,
            name: name.ok_or_else(|| missing("name"))?,
            git_rev: git_rev.ok_or_else(|| missing("git_rev"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            verdict: verdict.ok_or_else(|| missing("verdict"))?,
            evidence: evidence.ok_or_else(|| missing("evidence"))?,
            hash: hash.ok_or_else(|| missing("hash"))?,
            gfp_sweeps: gfp_sweeps.ok_or_else(|| missing("gfp_sweeps"))?,
            wait_pairs: wait_pairs.ok_or_else(|| missing("wait_pairs"))?,
            // Records from before the coverage subsystem carry no
            // coverage digest; default to empty rather than rejecting.
            coverage: coverage.unwrap_or_default(),
            provenance: provenance.ok_or_else(|| missing("provenance"))?,
        })
    }

    /// One-line human summary for `ebda ledger list` and the monitor's
    /// recent-verdicts section.
    pub fn summary(&self) -> String {
        format!(
            "#{:<4} {:<6} {:<13} {} {:<11} {}",
            self.index, self.source, self.verdict, self.hash, self.evidence, self.name
        )
    }
}

/// Appends `records` to the ledger at `path`, assigning each the next
/// free index (records already on disk keep theirs — the file is never
/// rewritten). Creates the file if needed. Returns the base index the
/// first new record received.
///
/// Bumps `ebda_ledger_appends_total` and, per record,
/// `ebda_ledger_records_total{source,verdict}`.
///
/// # Errors
///
/// Returns I/O failures as strings.
pub fn append(path: &Path, records: &[LedgerRecord]) -> Result<u64, String> {
    let io_error = |e: std::io::Error| format!("{}: {e}", path.display());
    let base = match std::fs::File::open(path) {
        Ok(file) => count_records(file).map_err(io_error)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => return Err(io_error(e)),
    };
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io_error)?;
    let bytes: usize = records.iter().map(|r| r.provenance.len() + 320).sum();
    let mut out = String::with_capacity(bytes);
    for (i, r) in records.iter().enumerate() {
        r.write_line(base + i as u64, &mut out)
            .expect("writing to a String cannot fail");
        out.push('\n');
        if crate::metrics::enabled() {
            crate::metrics::global().counter_add(
                "ebda_ledger_records_total",
                &[("source", r.source.clone()), ("verdict", r.verdict.clone())],
                1,
            );
        }
    }
    file.write_all(out.as_bytes()).map_err(io_error)?;
    crate::prof::work("obs/ledger/append", "appends", 1);
    crate::metrics::gauge_set(
        "ebda_ledger_last_index",
        &[],
        (base + records.len() as u64).saturating_sub(1) as f64,
    );
    Ok(base)
}

/// Whether a ledger line holds no record: nothing but ASCII blanks
/// (space and 0x09–0x0D). [`append`]'s count, [`read`] and `ebda
/// check-cert` share it, so a line of any other bytes — U+00A0 and
/// U+0085 included — is a record to all three.
pub fn blank(line: &[u8]) -> bool {
    line.iter().all(|b| matches!(b, b' ' | 0x09..=0x0D))
}

/// Records in a ledger file: its non-blank lines (what [`read`] would
/// return the length of), counted a line at a time without decoding,
/// parsing or keeping any of them.
fn count_records(file: std::fs::File) -> std::io::Result<u64> {
    let mut lines = std::io::BufReader::with_capacity(1 << 16, file);
    let (mut records, mut line) = (0, Vec::new());
    while lines.read_until(b'\n', &mut line)? > 0 {
        records += u64::from(!blank(&line));
        line.clear();
    }
    Ok(records)
}

/// Reads and parses every record in the ledger at `path`.
///
/// # Errors
///
/// Returns I/O failures and the first malformed line (with its number).
pub fn read(path: &Path) -> Result<Vec<LedgerRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !blank(l.as_bytes()))
        .enumerate()
        .map(|(i, l)| LedgerRecord::from_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The last `n` records of the ledger at `path` (fewer when the ledger
/// is shorter).
///
/// # Errors
///
/// See [`read`].
pub fn tail(path: &Path, n: usize) -> Result<Vec<LedgerRecord>, String> {
    let mut records = read(path)?;
    let keep = records.len().saturating_sub(n);
    Ok(records.split_off(keep))
}

/// Byte-compares two ledgers line by line. Returns `None` when they are
/// identical, otherwise a description of the first divergence — the
/// check the cross-thread determinism tests run.
///
/// # Errors
///
/// Returns I/O failures as strings.
pub fn diff(a: &Path, b: &Path) -> Result<Option<String>, String> {
    let read_text =
        |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (ta, tb) = (read_text(a)?, read_text(b)?);
    if ta == tb {
        return Ok(None);
    }
    let (mut la, mut lb) = (ta.lines(), tb.lines());
    let mut line = 0usize;
    loop {
        line += 1;
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (Some(x), Some(y)) => {
                return Ok(Some(format!(
                    "line {line} differs:\n  {}: {x}\n  {}: {y}",
                    a.display(),
                    b.display()
                )))
            }
            (Some(_), None) => {
                return Ok(Some(format!(
                    "{} has {line}+ lines, {} ends at {}",
                    a.display(),
                    b.display(),
                    line - 1
                )))
            }
            (None, Some(_)) => {
                return Ok(Some(format!(
                    "{} ends at {}, {} has {line}+ lines",
                    a.display(),
                    line - 1,
                    b.display()
                )))
            }
            (None, None) => return Ok(Some("files differ only in trailing bytes".to_string())),
        }
    }
}

/// Renders the ledger at `path` as a JSON array of record objects (the
/// `/ledger` endpoint body), each as [`LedgerRecord::to_line`] writes it:
/// format 2, the provenance an object a client reads without a second
/// parse — format-1 records on disk included.
///
/// # Errors
///
/// Returns I/O failures and malformed lines as strings.
pub fn render_json(path: &Path) -> Result<String, String> {
    // Parse each line first so a corrupt ledger cannot serve broken JSON.
    let records = read(path)?;
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_line());
    }
    out.push_str("]\n");
    Ok(out)
}

/// The first seven hex digits of the checkout's `HEAD`, read from `.git`
/// (the current directory's or the nearest ancestor's), or `"unknown"`
/// outside a checkout or when anything on the way cannot be read.
/// Stamped into ledger records and the `ebda_build_info` gauge. A few
/// small file reads, no process: campaigns stamp every run.
pub fn git_rev() -> String {
    std::env::current_dir()
        .ok()
        .and_then(|dir| head_of(&dir))
        .unwrap_or_else(|| "unknown".to_string())
}

/// [`git_rev`] for the checkout containing `start`. `HEAD` names a
/// commit directly (detached) or a ref, which is a file of its own or a
/// line of `packed-refs`; in a linked worktree `.git` is a file naming
/// the worktree's directory, whose `commondir` names the directory the
/// shared refs live in.
fn head_of(start: &Path) -> Option<String> {
    let dot_git = start
        .ancestors()
        .map(|dir| dir.join(".git"))
        .find(|path| path.exists())?;
    let git_dir = if dot_git.is_dir() {
        dot_git
    } else {
        let file = std::fs::read_to_string(&dot_git).ok()?;
        dot_git.parent()?.join(file.strip_prefix("gitdir:")?.trim())
    };
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let commit = match head.strip_prefix("ref:") {
        None => head,
        Some(name) => {
            let name = name.trim();
            let common = match std::fs::read_to_string(git_dir.join("commondir")) {
                Ok(dir) => git_dir.join(dir.trim()),
                Err(_) => git_dir.clone(),
            };
            let loose = [&git_dir, &common]
                .into_iter()
                .find_map(|dir| std::fs::read_to_string(dir.join(name)).ok());
            match loose {
                Some(commit) => commit,
                None => std::fs::read_to_string(common.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find_map(|line| line.strip_suffix(name)?.strip_suffix(' '))?
                    .to_string(),
            }
        }
    };
    // A full object name (SHA-1 or SHA-256) or nothing.
    let commit = commit.trim();
    let full = matches!(commit.len(), 40 | 64) && commit.bytes().all(|b| b.is_ascii_hexdigit());
    full.then(|| commit[..7].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn record(name: &str, verdict: &str) -> LedgerRecord {
        LedgerRecord {
            index: 0,
            source: "oracle".to_string(),
            name: name.to_string(),
            git_rev: "abc1234".to_string(),
            seed: 7,
            verdict: verdict.to_string(),
            evidence: if verdict == "deadlock-free" {
                "certificate"
            } else {
                "witness"
            }
            .to_string(),
            hash: "499b374294581b24".to_string(),
            gfp_sweeps: 3,
            wait_pairs: 68,
            coverage: "feedfacecafebeef".to_string(),
            provenance: "{\"format\":1,\"hash\":\"499b374294581b24\"}".to_string(),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ebda-ledger-test-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_and_appends_in_index_order() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);

        let r = record("#0 partitioning on 3x3", "deadlock-free");
        let line = r.to_line();
        assert!(!line.contains('\n'), "records must be single-line");
        assert_eq!(LedgerRecord::from_line(&line).unwrap(), r);

        let base = append(
            &path,
            &[r.clone(), record("#1 random-turns", "deadlocking")],
        )
        .unwrap();
        assert_eq!(base, 0);
        let base = append(&path, &[record("#2 ordering", "deadlock-free")]).unwrap();
        assert_eq!(base, 2);

        let records = read(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "append assigns consecutive indices"
        );
        let last = tail(&path, 2).unwrap();
        assert_eq!(last.len(), 2);
        assert_eq!(last[0].index, 1);

        let body = render_json(&path).unwrap();
        assert!(body.starts_with('[') && body.ends_with("]\n"));
        crate::json::Value::parse(&body).expect("endpoint body is valid JSON");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn diff_reports_first_divergence() {
        let a = temp_path("diff-a");
        let b = temp_path("diff-b");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
        append(&a, &[record("same", "deadlock-free")]).unwrap();
        append(&b, &[record("same", "deadlock-free")]).unwrap();
        assert_eq!(diff(&a, &b).unwrap(), None);
        append(&b, &[record("extra", "deadlocking")]).unwrap();
        let d = diff(&a, &b).unwrap().expect("lengths differ");
        assert!(d.contains("ends at"), "{d}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn rejects_malformed_and_future_format_lines() {
        assert!(LedgerRecord::from_line("{\"format\":99}").is_err());
        assert!(LedgerRecord::from_line("not json").is_err());
        let mut r = record("x", "deadlocking");
        r.name = "quotes \" and \\ backslashes".to_string();
        let line = r.to_line();
        assert_eq!(LedgerRecord::from_line(&line).unwrap().name, r.name);
    }

    #[test]
    fn provenance_is_inline_when_it_is_one_object_and_format_1_still_reads() {
        let mut r = record("inline", "deadlock-free");
        for (provenance, inline) in [
            ("{\"format\":1,\"hash\":\"499b374294581b24\"}", true),
            ("{ \"a\" : [1, {}, \"}\"] }", true),
            ("{\"a\":1}\n", false),
            ("{\"a\":\n1}", false),
            (" {}", false),
            ("{\"a\":1} {}", false),
            ("{\"a\":", false),
            ("[{}]", false),
            ("plain \" text", false),
            ("", false),
        ] {
            r.provenance = provenance.to_string();
            let line = r.to_line();
            let (head, tail) = line.split_once(",\"provenance\":").expect("last field");
            let want = if inline {
                format!("{provenance}}}")
            } else {
                format!("{}}}", json::escape(provenance))
            };
            assert_eq!(tail, want, "{provenance:?}");
            assert_eq!(LedgerRecord::from_line(&line).as_ref(), Ok(&r));
            // Format 1 escaped every provenance; such lines still read.
            let v1 = format!(
                "{},\"provenance\":{}}}",
                head.replacen("{\"format\":2,", "{\"format\":1,", 1),
                json::escape(provenance)
            );
            assert_eq!(LedgerRecord::from_line(&v1).as_ref(), Ok(&r), "{v1}");
        }
        // An inline provenance is a value like any other: checked, and
        // refused when it is not an object or a string.
        let line = record("x", "deadlocking").to_line();
        for bad in ["{\"format\":1,", "{\"a\":}", "[1]", "7"] {
            let at = line.find(",\"provenance\":").unwrap() + 14;
            let broken = format!("{}{bad}}}", &line[..at]);
            let err = LedgerRecord::from_line(&broken).unwrap_err();
            assert!(err.starts_with("provenance: "), "{bad}: {err}");
        }
    }

    #[test]
    fn integers_above_two_to_the_53_survive_the_ledger() {
        // Read through an `f64`, 2^53 + 1 came back as 2^53.
        for n in [(1u64 << 53) + 1, u64::MAX] {
            let mut r = record("big", "deadlock-free");
            (r.index, r.seed, r.gfp_sweeps, r.wait_pairs) = (n, n, n, n);
            let line = r.to_line();
            assert!(line.contains(&format!("\"seed\":{n},")), "{line}");
            assert_eq!(LedgerRecord::from_line(&line).unwrap(), r);
        }
        // What does not fit is an error, not a rounded value.
        let line = record("x", "deadlocking").to_line();
        for bad in ["18446744073709551616", "1e3", "7.0", "-7", "\"7\""] {
            let err =
                LedgerRecord::from_line(&line.replace("\"seed\":7", &format!("\"seed\":{bad}")))
                    .unwrap_err();
            assert!(err.starts_with("seed: "), "{bad}: {err}");
        }
    }

    #[test]
    fn lines_read_in_any_key_order_and_skip_unknown_keys() {
        let r = record("order", "deadlocking");
        let line = r.to_line();
        let body = line.strip_prefix("{\"format\":2,").unwrap();
        let shuffled = format!(
            "{{\"later\":[{{\"x\":null}}],{},\"format\":2}}",
            &body[..body.len() - 1]
        );
        assert_eq!(LedgerRecord::from_line(&shuffled).unwrap(), r);
        let err = LedgerRecord::from_line(&line.replace(",\"hash\":\"499b374294581b24\"", ""))
            .unwrap_err();
        assert_eq!(err, "missing field hash");
        assert!(LedgerRecord::from_line(&format!("{line} x")).is_err());
    }

    #[test]
    fn append_counts_the_lines_on_disk_without_parsing_them() {
        let path = temp_path("count");
        // Blank lines, a last line without its newline, bytes that are
        // not UTF-8: three records as far as the index goes.
        std::fs::write(&path, b"{}\n\n  \r\n\xff\xfe\nlast".as_slice()).unwrap();
        assert_eq!(append(&path, &[record("a", "deadlocking")]).unwrap(), 3);
        // A record, then a line of one character after it. VT is an
        // ASCII blank and skipped by all three readers; U+00A0 and U+0085
        // are not, so they are a record `read` and `tail` reject.
        let line = record("first", "deadlock-free").to_line();
        for (after, base) in [("\u{0B}", 1), ("\u{A0}", 2), ("\u{85}", 2)] {
            std::fs::write(&path, format!("{line}\n{after}\n")).unwrap();
            assert_eq!(append(&path, &[record("a", "deadlocking")]).unwrap(), base);
            let indices = read(&path).map(|r| r.iter().map(|r| r.index).collect::<Vec<_>>());
            let last = tail(&path, 1).map(|r| r[0].index);
            if base == 1 {
                assert_eq!((indices, last), (Ok(vec![0, 1]), Ok(1)), "{after:?}");
            } else {
                assert!(indices.unwrap_err().starts_with("line 2: "), "{after:?}");
                assert!(last.is_err(), "{after:?}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reads_pre_coverage_records_with_empty_digest() {
        // Ledgers written before the coverage subsystem lack the
        // `coverage` key; they must still parse (as digest "").
        let legacy = record("legacy", "deadlock-free")
            .to_line()
            .replace(",\"coverage\":\"feedfacecafebeef\"", "");
        let parsed = LedgerRecord::from_line(&legacy).expect("legacy line parses");
        assert_eq!(parsed.coverage, "");
    }
    /// A scratch checkout: `files` are (path under the root, contents).
    fn checkout(tag: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = temp_path(tag);
        let _ = std::fs::remove_dir_all(&root);
        for (path, contents) in files {
            let path = root.join(path);
            std::fs::create_dir_all(path.parent().expect("under the root")).unwrap();
            std::fs::write(path, contents).unwrap();
        }
        root
    }

    const COMMIT: &str = "0123456789abcdef0123456789abcdef01234567";
    const OTHER: &str = "fedcba9876543210fedcba9876543210fedcba98";

    #[test]
    fn git_rev_reads_head_through_every_layout() {
        let case = |tag: &str, files: &[(&str, &str)], below: &str, want: Option<&str>| {
            let root = checkout(&format!("git-{tag}"), files);
            assert_eq!(head_of(&root.join(below)).as_deref(), want, "{tag}");
            let _ = std::fs::remove_dir_all(&root);
        };
        let on_main = "ref: refs/heads/main\n";
        let (commit, other) = (format!("{COMMIT}\n"), format!("{OTHER}\n"));
        let rev = Some(&COMMIT[..7]);

        // A loose ref wins over a stale packed line.
        let stale = format!("{OTHER} refs/heads/main\n");
        let loose = [
            (".git/HEAD", on_main),
            (".git/refs/heads/main", &commit),
            (".git/packed-refs", &stale),
        ];
        case("loose", &loose, "", rev);
        // `packed-refs` only: the header, refs the name is a suffix of, a
        // peeled line.
        let packed = format!(
            "# pack-refs with: peeled fully-peeled sorted \n\
             {OTHER} refs/heads/not-main\n\
             {OTHER} refs/remotes/origin/refs/heads/main\n\
             {COMMIT} refs/heads/main\n^{OTHER}\n"
        );
        let files = [(".git/HEAD", on_main), (".git/packed-refs", &packed)];
        case("packed", &files, "", rev);
        case("detached", &[(".git/HEAD", &commit)], "", rev);
        let sha256 = format!("{COMMIT}{}\n", &COMMIT[..24]);
        case("sha256", &[(".git/HEAD", &sha256)], "", rev);
        // A linked worktree: `.git` is a file, HEAD is the worktree's
        // own, the branch lives in the common directory.
        let worktree = [
            ("wt/.git", "gitdir: ../main/.git/worktrees/wt\n"),
            ("main/.git/worktrees/wt/HEAD", "ref: refs/heads/topic\n"),
            ("main/.git/worktrees/wt/commondir", "../..\n"),
            ("main/.git/HEAD", &other),
            ("main/.git/refs/heads/topic", &commit),
        ];
        case("worktree", &worktree, "wt", rev);
        let nested = [(".git/HEAD", commit.as_str()), ("a/b/c/file", "")];
        case("nested", &nested, "a/b/c", rev);

        // Everything else is `None`, never a panic.
        case("empty-head", &[(".git/HEAD", "")], "", None);
        let non_hex = COMMIT.replace('0', "g");
        case("non-hex", &[(".git/HEAD", &non_hex)], "", None);
        case("truncated", &[(".git/HEAD", &COMMIT[..20])], "", None);
        case("missing-ref", &[(".git/HEAD", on_main)], "", None);
        let elsewhere = format!("{COMMIT} refs/heads/other\n");
        let files = [(".git/HEAD", on_main), (".git/packed-refs", &elsewhere)];
        case("missing-ref-packed-elsewhere", &files, "", None);
        case("ref-without-a-name", &[(".git/HEAD", "ref:")], "", None);
        case(
            "gitdir-naming-nothing",
            &[(".git", "gitdir: elsewhere\n")],
            "",
            None,
        );
        case("gitdir-of-noise", &[(".git", "\u{0}\u{1}")], "", None);
    }

    #[test]
    fn git_rev_outside_a_checkout_is_unknown() {
        // No ancestor of the filesystem root holds a `.git` here; and the
        // public entry point never panics wherever the tests run.
        assert_eq!(head_of(Path::new("/")), None);
        let rev = git_rev();
        assert!(
            rev == "unknown" || (rev.len() == 7 && rev.bytes().all(|b| b.is_ascii_hexdigit())),
            "{rev:?}"
        );
    }
}
