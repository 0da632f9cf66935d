//! Hostile variations of valid documents, for the no-panic fuzzers and
//! the old-parser/new-reader differentials of every document kind moved
//! onto `ebda_obs::json::Reader` (this crate's tests, and by path the
//! ones in `crates/oracle/tests/` and `crates/corpus/tests/`).
//!
//! Seed-pinned (`Rng64`), no dependency: the same documents every run.
//!
//! [`differential`] holds the two properties every document kind is
//! held to, over [`for_each_variation`] of valid documents, on a 256 KB
//! stack:
//!
//! * **no panic, no abort, no hang**: the parser returns `Ok` or `Err`,
//!   and what it accepts re-serializes to a fixed point;
//! * **the parser it replaced agrees**: the tree-based reader kept in
//!   `json_ref` (and the document references built on it) accepts and
//!   rejects the same documents and reads the same values.
//!
//! The listed exceptions to "the same": the reader caps nesting (the
//! tree parser recursed per level, so it is not even run on deep
//! documents); it reads integer fields exactly — a fraction, an
//! exponent, a value past `u64::MAX` or past its field's width is an
//! error where the tree parser rounded through `f64` and truncated with
//! `as`; and of a key given twice it reads both values, where the tree
//! kept the later one and never saw the type of the earlier.

#![allow(dead_code)]

use ebda_obs::json::{Kind, Reader};
use ebda_obs::Rng64;

/// A name that needs every kind of escape the writers have.
pub const AWKWARD: &str =
    "q\"uote \\back\\ /slash\ttab\nline\r\u{08}\u{0C}\u{01}\u{1f} é ↔ 环 \u{10348}";

/// Bytes a flipped position is overwritten with: the structural
/// characters, what numbers and literals are made of, a control byte.
const PALETTE: &[u8] = b"{}[]\":,\\ \n0123456789eE.+-tfnux\x01";

/// Snippets spliced into documents. The `\u` forms are cut short or
/// lone surrogates; they bite when they land inside a string.
const SNIPPETS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    ",",
    ":",
    "null",
    "true",
    "-",
    "1e999",
    "-0.0",
    "1.5",
    "18446744073709551616",
    "9007199254740993",
    "\\ud800",
    "\\udc00\\ud800",
    "\\u12",
    "\\u",
    "\\x",
    "\u{0}",
    "é↔",
    "{\"k\":",
    "[[",
];

/// An over-estimate of how deep `doc` nests: brackets inside strings
/// count too.
pub fn depth(doc: &str) -> usize {
    let (mut depth, mut deepest) = (0usize, 0);
    for b in doc.bytes() {
        match b {
            b'[' | b'{' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b']' | b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    deepest
}

/// Does some object of `doc` give a key twice? (`false` for what is not
/// JSON.) The tree parser kept the later value and never looked at the
/// earlier one's type; the reader reads both.
pub fn repeats_a_key(doc: &str) -> bool {
    fn walk(r: &mut Reader<'_>) -> Result<bool, String> {
        match r.peek()? {
            Kind::Obj => {
                let (mut keys, mut repeated) = (std::collections::BTreeSet::new(), false);
                r.obj(|r, key| {
                    repeated |= !keys.insert(key.to_string());
                    repeated |= walk(r)?;
                    Ok(())
                })?;
                Ok(repeated)
            }
            Kind::Arr => Ok(r.arr(walk)?.contains(&true)),
            _ => r.skip_value().map(|()| false),
        }
    }
    walk(&mut Reader::new(doc)).unwrap_or(false)
}

/// A random character boundary of `doc`.
fn boundary(doc: &str, rng: &mut Rng64) -> usize {
    let mut at = rng.gen_index(doc.len() + 1);
    while !doc.is_char_boundary(at) {
        at -= 1;
    }
    at
}

fn spliced(doc: &str, at: usize, insert: &str) -> String {
    [&doc[..at], insert, &doc[at..]].concat()
}

/// Calls `visit` with hostile variations of `valid`, which must be a
/// document its parser accepts:
///
/// * every truncation point (every 1/4096th for long documents);
/// * `budget` single-byte flips, `budget` spliced snippets and slices of
///   the document itself;
/// * each run of digits in turn replaced by 10⁴-digit numbers;
/// * nesting 127, 128, 129 and 10⁴ deep spliced in, closed and left open.
pub fn for_each_variation(valid: &str, seed: u64, budget: usize, mut visit: impl FnMut(&str)) {
    let mut rng = Rng64::new(seed);
    let stride = valid.len().div_ceil(4096).max(1);
    for cut in (0..valid.len()).step_by(stride) {
        if valid.is_char_boundary(cut) {
            visit(&valid[..cut]);
        }
    }
    let mut bytes = valid.as_bytes().to_vec();
    for _ in 0..budget {
        let at = rng.gen_index(bytes.len());
        if !bytes[at].is_ascii() {
            continue;
        }
        let was = std::mem::replace(&mut bytes[at], PALETTE[rng.gen_index(PALETTE.len())]);
        visit(std::str::from_utf8(&bytes).expect("ASCII for ASCII"));
        bytes[at] = was;
    }
    for _ in 0..budget {
        let at = boundary(valid, &mut rng);
        let snippet = if rng.gen_index(4) == 0 {
            // Up to 64 bytes of the document itself.
            let (a, b) = (boundary(valid, &mut rng), boundary(valid, &mut rng));
            let (a, mut b) = (a.min(b), a.max(b).min(a.min(b) + 64));
            while !valid.is_char_boundary(b) {
                b -= 1;
            }
            &valid[a..b]
        } else {
            SNIPPETS[rng.gen_index(SNIPPETS.len())]
        };
        visit(&spliced(valid, at, snippet));
    }
    let nines = "9".repeat(10_000);
    let long = [
        format!("1{}", "0".repeat(10_000)),
        format!("0.{nines}"),
        format!("1e{nines}"),
        nines,
    ];
    let mut at = 0;
    let mut runs = 0;
    while let Some(start) = valid[at..].find(|c: char| c.is_ascii_digit()) {
        let start = at + start;
        let len = valid[start..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        at = start + len;
        runs += 1;
        // Every run of a short document, a sample of a long one's.
        if runs > 24 && rng.gen_index(16) != 0 {
            continue;
        }
        let number = &long[rng.gen_index(long.len())];
        visit(&[&valid[..start], number, &valid[at..]].concat());
    }
    for deep in [127, 128, 129, 10_000] {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let at = boundary(valid, &mut rng);
            let closed = [open.repeat(deep), "0".to_string(), close.repeat(deep)].concat();
            visit(&spliced(valid, at, &closed));
            visit(&spliced(valid, at, &open.repeat(deep)));
        }
    }
}

/// Runs `body` on a thread with a 256 KB stack: what recurses per level
/// of hostile nesting does not survive there.
pub fn on_a_small_stack(body: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(body)
        .expect("spawn")
        .join()
        .expect("no panic on hostile input");
}

/// How deep the tree parser is trusted to recurse on the small stack.
pub const REFERENCE_DEPTH: usize = 48;

/// The reader's message says so when it refused on purpose.
fn refused_by_design(err: &str) -> bool {
    [
        "nesting deeper than",
        "unsigned integer",
        "does not fit",
        "out of range",
    ]
    .iter()
    .any(|reason| err.contains(reason))
}

/// Integers this long may differ: exact in the reader, rounded by the
/// tree parser.
fn has_a_long_integer(doc: &str) -> bool {
    doc.as_bytes()
        .split(|b| !b.is_ascii_digit())
        .any(|run| run.len() >= 16)
}

/// Holds one document kind to both properties of the module docs.
/// `new` is the library's parser, `old` the reference (an `Err` from it
/// may stand for a panic it is known to have); `fixed_point` must
/// re-serialize what `new` accepted and see it come back the same.
pub fn differential<T: PartialEq + std::fmt::Debug + 'static>(
    valid: Vec<String>,
    budget: usize,
    new: fn(&str) -> Result<T, String>,
    old: fn(&str) -> Result<T, String>,
    fixed_point: fn(&T),
) {
    on_a_small_stack(move || {
        let (mut seen, mut accepted, mut by_design) = (0, 0, 0);
        for (i, doc) in valid.iter().enumerate() {
            assert!(new(doc).is_ok() && old(doc).is_ok(), "valid: {doc}");
            for_each_variation(doc, 19 + i as u64, budget, |doc| {
                seen += 1;
                let got = new(doc);
                if let Ok(value) = &got {
                    accepted += 1;
                    fixed_point(value);
                }
                if depth(doc) > REFERENCE_DEPTH {
                    return;
                }
                match (got, old(doc)) {
                    (Ok(got), Ok(want)) => {
                        assert!(got == want || has_a_long_integer(doc), "{doc}")
                    }
                    (Err(e), Ok(_)) => {
                        by_design += 1;
                        assert!(
                            refused_by_design(&e) || repeats_a_key(doc),
                            "reader alone refuses ({e}): {doc}"
                        )
                    }
                    (Ok(_), Err(e)) => panic!("tree parser alone refuses ({e}): {doc}"),
                    (Err(_), Err(_)) => {}
                }
            });
        }
        // The variations are neither all rejected nor all alike.
        assert!(
            seen > 2000 && accepted > 20 && by_design > 0,
            "{seen} variations, {accepted} accepted, {by_design} refused by design"
        );
    });
}
