//! The JSON code `ebda_obs::json` had before the pull reader: the
//! `format!`-era `escape` and the recursive-descent tree parser over a
//! `Vec<char>`, kept verbatim as the differential reference for the
//! reader and writers that replaced them (`tests/json_differential.rs`
//! here, and the document-level references in `crates/oracle/tests/` and
//! `crates/corpus/tests/`, which include this file by path).
//!
//! Changed since with the ledger format: `ledger_to_line` writes format
//! 2 (the provenance inline when it is one object on one line) and
//! `ledger_from_line` reads both formats, taking an inline provenance's
//! text with `field_text`.
//!
//! Known, intended differences of the library reader: nesting is capped
//! (this parser recurses per level and overflows the stack on hostile
//! input), and integer fields are read exactly (this parser reads every
//! number through an `f64`).

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON document (adds the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as f64; our exports stay within 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys sorted for deterministic comparisons.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(input: &str) -> Result<Value, String> {
        let bytes: Vec<char> = input.chars().collect();
        let mut p = Parser {
            chars: &bytes,
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing input at char {}", p.pos));
        }
        Ok(v)
    }

    /// The object field `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }
}

struct Parser<'a> {
    chars: &'a [char],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .chars
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<char, String> {
        let c = self
            .peek()
            .ok_or_else(|| "unexpected end of input".to_string())?;
        self.pos += 1;
        Ok(c)
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        let got = self.bump()?;
        if got != want {
            return Err(format!("expected '{want}', got '{got}' at {}", self.pos));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some('n') => self.literal("null", Value::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{c}' at {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                '}' => return Ok(Value::Obj(map)),
                c => return Err(format!("expected ',' or '}}', got '{c}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                ']' => return Ok(Value::Arr(items)),
                c => return Err(format!("expected ',' or ']', got '{c}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                '"' => return Ok(out),
                '\\' => match self.bump()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'b' => out.push('\u{08}'),
                    'f' => out.push('\u{0C}'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            code = code * 16
                                + d.to_digit(16)
                                    .ok_or_else(|| format!("bad \\u digit '{d}'"))?;
                        }
                        // Surrogate pairs are not emitted by our writers;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    c => return Err(format!("bad escape '\\{c}'")),
                },
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || "+-.eE".contains(c))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

// ---------------------------------------------------------------------
// The document code that sat on the tree parser and `format!`: ledger
// lines and coverage maps as they were written and read before, kept as
// free functions over the library's public types.
// ---------------------------------------------------------------------

use ebda_obs::coverage::{COVERAGE_FORMAT, FAMILIES};
use ebda_obs::ledger::LEDGER_FORMAT;
use ebda_obs::{CoverageMap, LedgerRecord};

/// `LedgerRecord::to_line` as one `format!`.
pub fn ledger_to_line(r: &LedgerRecord) -> String {
    let p = &r.provenance;
    let inline = p.starts_with('{')
        && p.ends_with('}')
        && !p.bytes().any(|b| b < 0x20)
        && matches!(Value::parse(p), Ok(Value::Obj(_)));
    format!(
        "{{\"format\":{},\"index\":{},\"source\":{},\"name\":{},\"git_rev\":{},\"seed\":{},\"verdict\":{},\"evidence\":{},\"hash\":{},\"gfp_sweeps\":{},\"wait_pairs\":{},\"coverage\":{},\"provenance\":{}}}",
        LEDGER_FORMAT,
        r.index,
        escape(&r.source),
        escape(&r.name),
        escape(&r.git_rev),
        r.seed,
        escape(&r.verdict),
        escape(&r.evidence),
        escape(&r.hash),
        r.gfp_sweeps,
        r.wait_pairs,
        escape(&r.coverage),
        if inline { p.clone() } else { escape(p) },
    )
}

/// The text of the value of `key` in the top-level object `doc` (the
/// last one, if `key` repeats), which the tree parser accepts.
fn field_text(doc: &str, key: &str) -> String {
    let chars: Vec<char> = doc.chars().collect();
    let mut p = Parser {
        chars: &chars,
        pos: 0,
    };
    let mut text = String::new();
    p.skip_ws();
    p.expect('{').expect("an object");
    p.skip_ws();
    while p.peek() != Some('}') {
        p.skip_ws();
        let k = p.string().expect("a key");
        p.skip_ws();
        p.expect(':').expect("a colon");
        p.skip_ws();
        let start = p.pos;
        p.value().expect("a value");
        if k == key {
            text = chars[start..p.pos].iter().collect();
        }
        p.skip_ws();
        if p.bump() == Ok('}') {
            break;
        }
    }
    text
}

/// `LedgerRecord::from_line` over the tree.
pub fn ledger_from_line(line: &str) -> Result<LedgerRecord, String> {
    let v = Value::parse(line)?;
    let field = |key: &str| v.get(key).ok_or_else(|| format!("missing field {key}"));
    let str_field = |key: &str| {
        field(key).and_then(|x| {
            x.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field {key} is not a string"))
        })
    };
    let u64_field = |key: &str| {
        field(key).and_then(|x| {
            x.as_u64()
                .ok_or_else(|| format!("field {key} is not a u64"))
        })
    };
    let format = u64_field("format")?;
    if !(1..=LEDGER_FORMAT).contains(&format) {
        return Err(format!(
            "unsupported ledger format {format} (this build reads 1 to {LEDGER_FORMAT})"
        ));
    }
    Ok(LedgerRecord {
        index: u64_field("index")?,
        source: str_field("source")?,
        name: str_field("name")?,
        git_rev: str_field("git_rev")?,
        seed: u64_field("seed")?,
        verdict: str_field("verdict")?,
        evidence: str_field("evidence")?,
        hash: str_field("hash")?,
        gfp_sweeps: u64_field("gfp_sweeps")?,
        wait_pairs: u64_field("wait_pairs")?,
        coverage: match v.get("coverage") {
            Some(x) => x
                .as_str()
                .map(str::to_string)
                .ok_or("field coverage is not a string")?,
            None => String::new(),
        },
        provenance: match field("provenance")? {
            Value::Obj(_) => field_text(line, "provenance"),
            x => x
                .as_str()
                .map(str::to_string)
                .ok_or("field provenance is neither an object nor a string")?,
        },
    })
}

/// `CoverageMap::to_json` with an `escape` and a `to_string` per point.
pub fn coverage_to_json(map: &CoverageMap) -> String {
    let mut out = format!(
        "{{\"format\":{COVERAGE_FORMAT},\"key\":{},\"families\":{{",
        escape(map.key())
    );
    let covered = FAMILIES.iter().filter(|f| map.covered(f) > 0);
    for (fi, family) in covered.enumerate() {
        if fi > 0 {
            out.push(',');
        }
        out.push_str(&escape(family));
        out.push_str(":{");
        for (pi, (point, n)) in map.points(family).enumerate() {
            if pi > 0 {
                out.push(',');
            }
            out.push_str(&escape(point));
            out.push(':');
            out.push_str(&n.to_string());
        }
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// `CoverageMap::from_json` over the tree.
pub fn coverage_from_json(text: &str) -> Result<CoverageMap, String> {
    let v = Value::parse(text)?;
    let format = v
        .get("format")
        .and_then(Value::as_u64)
        .ok_or("missing field format")?;
    if format != COVERAGE_FORMAT {
        return Err(format!(
            "unsupported coverage format {format} (this build reads {COVERAGE_FORMAT})"
        ));
    }
    let key = v
        .get("key")
        .and_then(Value::as_str)
        .ok_or("missing field key")?
        .to_string();
    let Value::Obj(families) = v.get("families").ok_or("missing field families")? else {
        return Err("field families is not an object".to_string());
    };
    let mut map = CoverageMap::new(key);
    for (family, points) in families {
        if !FAMILIES.contains(&family.as_str()) {
            return Err(format!("unknown coverage family {family:?}"));
        }
        let Value::Obj(points) = points else {
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
