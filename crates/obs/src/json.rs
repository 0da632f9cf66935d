//! Minimal hand-rolled JSON: one pull [`Reader`] over the input's bytes,
//! writers that append into any [`fmt::Write`] sink, and a small owned
//! tree ([`Value`]) built on the reader for small documents and tests.
//!
//! The build environment cannot fetch crates, so serde is off the table.
//! The subset implemented here is exactly what the exporters emit:
//! objects, arrays, strings (with `\"\\/bfnrt` and `\uXXXX` escapes),
//! numbers, booleans and null.
//!
//! Everything that reads a file it did not write — ledger lines,
//! provenance documents, coverage maps, corpus entries — takes its
//! fields straight off the reader: strings are borrowed from the input
//! unless they contain an escape, integers are read exactly (no detour
//! through `f64`), unknown keys are skipped with [`Reader::skip_value`],
//! and nesting is capped at `MAX_DEPTH` so hostile input is an `Err`,
//! never a stack overflow. The writers' second sink is [`Fnv1a`]: a
//! digest of a document is hashed while it is written, without the
//! document ever existing as a string.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Deepest nesting the reader accepts. The deepest document any writer
/// in the workspace emits is the profile's phase tree (10 levels for
/// `repro sweep --quick`); provenance nests 4 deep, coverage maps 3.
pub(crate) const MAX_DEPTH: usize = 128;

/// Writes `s` as a JSON string, quotes included.
pub fn write_str<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.write_char('"')?;
    // Bytes that need no escape are copied in runs.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "\\u00",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        out.write_str(escaped)?;
        if escaped.len() == 4 {
            out.write_char(HEX[usize::from(b >> 4)] as char)?;
            out.write_char(HEX[usize::from(b & 15)] as char)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Writes `n` in decimal.
pub fn write_u64<W: fmt::Write>(out: &mut W, mut n: u64) -> fmt::Result {
    if n < 10 {
        return out.write_char((b'0' + n as u8) as char);
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

/// Writes `true` or `false`.
pub fn write_bool<W: fmt::Write>(out: &mut W, b: bool) -> fmt::Result {
    out.write_str(if b { "true" } else { "false" })
}

/// Writes `[a<sep>b<sep>…]`, each item through `item`.
pub fn write_list<W: fmt::Write, T>(
    out: &mut W,
    sep: &str,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut W, T) -> fmt::Result,
) -> fmt::Result {
    out.write_char('[')?;
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.write_str(sep)?;
        }
        item(out, x)?;
    }
    out.write_char(']')
}

/// One scalar field of an exported record. A record lists its fields
/// once, as `(name, Field)` pairs, and each of its renderings (a JSON
/// object, a CSV row) reads that listing. `Null` is an empty CSV cell.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Field<'a> {
    U64(u64),
    Char(char),
    Str(&'a str),
    Bool(bool),
    Null,
}

impl Field<'_> {
    /// Writes the field as a JSON value.
    pub(crate) fn write<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        match self {
            Field::U64(n) => write_u64(out, n),
            Field::Char(c) => write_str(out, c.encode_utf8(&mut [0; 4])),
            Field::Str(s) => write_str(out, s),
            Field::Bool(b) => write_bool(out, b),
            Field::Null => out.write_str("null"),
        }
    }
}

/// The field's bare text: a CSV cell before quoting.
impl fmt::Display for Field<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Field::U64(n) => write!(f, "{n}"),
            Field::Char(c) => write!(f, "{c}"),
            Field::Str(s) => f.write_str(s),
            Field::Bool(b) => write!(f, "{b}"),
            Field::Null => Ok(()),
        }
    }
}

/// Writes `"name":value` members separated by `sep`. What follows the
/// comma of `sep` also follows each colon: `", "` writes `"a": 1, "b": 2`.
pub(crate) fn write_members<'a, W: fmt::Write>(
    out: &mut W,
    sep: &str,
    members: impl IntoIterator<Item = (&'a str, Field<'a>)>,
) -> fmt::Result {
    let pad = sep.strip_prefix(',').unwrap_or_default();
    for (i, (name, value)) in members.into_iter().enumerate() {
        out.write_str(if i > 0 { sep } else { "" })?;
        write_str(out, name)?;
        out.write_char(':')?;
        out.write_str(pad)?;
        value.write(out)?;
    }
    Ok(())
}

/// Writes `{members}` through [`write_members`].
pub(crate) fn write_object<'a, W: fmt::Write>(
    out: &mut W,
    sep: &str,
    members: impl IntoIterator<Item = (&'a str, Field<'a>)>,
) -> fmt::Result {
    out.write_char('{')?;
    write_members(out, sep, members)?;
    out.write_char('}')
}

/// Escapes a string for inclusion in a JSON document (adds the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s).expect("writing to a String cannot fail");
    out
}

/// Formats an `f64` so it parses back as the same JSON number: finite
/// values use Rust's shortest round-trip display, non-finite values
/// (which JSON cannot represent) become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        // `1.0` displays as "1" — fine for JSON, already a number.
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Streaming 64-bit FNV-1a, usable as the sink of any writer here: the
/// coverage digest and the canonical content hash are both "the FNV-1a
/// of the canonical text", computed without building the text.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of the empty string.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// What the next value of a document is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A pull reader over one JSON document: the caller asks for the value
/// it expects (`u64`, `str`, `obj`, …) and gets it or an `Err` carrying
/// the `line:column` of the offending byte. Object readers accept their
/// keys in any order; reading a key twice keeps the later value.
///
/// ```
/// use ebda_obs::json::Reader;
/// let mut r = Reader::new(r#"{"seed": 18446744073709551615, "tags": ["a", "b\n"]}"#);
/// let (mut seed, mut tags) = (0, Vec::new());
/// r.obj(|r, key| {
///     match key {
///         "seed" => seed = r.u64()?,
///         "tags" => tags = r.arr(|r| Ok(r.str()?.into_owned()))?,
///         _ => r.skip_value()?,
///     }
///     Ok(())
/// })?;
/// r.end()?;
/// assert_eq!((seed, tags.len()), (u64::MAX, 2));
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// A stack of one bit per open container, the innermost in bit 0:
    /// it has yielded an element, so a comma must precede its next one.
    started: u128,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader {
            src,
            pos: 0,
            depth: 0,
            started: 0,
        }
    }

    /// `what`, located. Off the hot paths: only a rejected document
    /// gets here.
    #[cold]
    #[inline(never)]
    fn fail(&self, what: impl fmt::Display) -> String {
        let before = &self.src.as_bytes()[..self.pos.min(self.src.len())];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + before.iter().rev().take_while(|&&b| b != b'\n').count();
        format!("{what} at {line}:{column}")
    }

    fn next_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.next_byte().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next_byte() {
            Some(b) if b == want => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(self.fail(format_args!("expected '{}'", want as char))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    /// The kind of the next value, which stays unread.
    pub fn peek(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.next_byte() {
            Some(b'{') => Ok(Kind::Obj),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            Some(_) => Err(self.fail("expected a value")),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        let found = self.src.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if found {
            self.pos += word.len();
        }
        found
    }

    /// Reads `null`.
    pub(crate) fn null(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.literal("null") {
            Ok(())
        } else {
            Err(self.fail("expected null"))
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(self.fail("expected true or false"))
        }
    }

    /// Reads a non-negative integer exactly: a plain run of digits that
    /// fits `u64`. Anything else — a sign, a fraction, an exponent, a
    /// value past `u64::MAX` — is an `Err`, never a rounded value.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        let mut value = Some(0u64);
        while let Some(digit) = self.next_byte().filter(u8::is_ascii_digit) {
            value = value.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(digit - b'0')));
            self.pos += 1;
        }
        let plain =
            self.pos > start && !matches!(self.next_byte(), Some(b'+' | b'-' | b'.' | b'e' | b'E'));
        match value {
            Some(n) if plain => Ok(n),
            _ => {
                self.pos = start;
                Err(self.fail(if plain {
                    "integer does not fit 64 bits"
                } else {
                    "expected an unsigned integer"
                }))
            }
        }
    }

    /// Reads a non-negative integer that must fit `T`.
    pub fn uint<T: TryFrom<u64>>(&mut self) -> Result<T, String> {
        self.skip_ws();
        let start = self.pos;
        let n = self.u64()?;
        T::try_from(n).map_err(|_| {
            self.pos = start;
            self.fail(format_args!("integer {n} is out of range"))
        })
    }

    /// Reads any JSON number as an `f64`.
    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        let text = self.number()?;
        text.parse().map_err(|_| self.fail("expected a number"))
    }

    /// Reads past a number and returns its text. The one number grammar
    /// of the reader: an optional `-`, digits with at most one `.` and a
    /// digit on some side of it, then optionally `e` or `E`, a sign and
    /// digits — and no further digit, sign, `.`, `e` or `E` after it.
    /// That is exactly the runs of those bytes `f64::from_str` accepts,
    /// which is what the tree reader once handed it.
    fn number(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let (bytes, start) = (self.src.as_bytes(), self.pos);
        let digits = |at: &mut usize| {
            let from = *at;
            while bytes.get(*at).is_some_and(u8::is_ascii_digit) {
                *at += 1;
            }
            *at > from
        };
        let mut at = start + usize::from(bytes.get(start) == Some(&b'-'));
        let mut valid = digits(&mut at);
        if bytes.get(at) == Some(&b'.') {
            at += 1;
            valid |= digits(&mut at);
        }
        if valid && matches!(bytes.get(at), Some(b'e' | b'E')) {
            at += 1;
            at += usize::from(matches!(bytes.get(at), Some(b'+' | b'-')));
            valid = digits(&mut at);
        }
        if !valid || matches!(bytes.get(at), Some(b'+' | b'-' | b'.' | b'e' | b'E')) {
            return Err(self.fail("expected a number"));
        }
        self.pos = at;
        Ok(&self.src[start..at])
    }

    /// Reads a string: a slice of the input, or an owned copy when it
    /// contains an escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.string(true)
    }

    /// [`Reader::str`]; with `keep` off the text is validated but not
    /// collected, so skipping a string never allocates.
    fn string(&mut self, keep: bool) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        if self.next_byte() != Some(b'"') {
            return Err(self.fail("expected a string"));
        }
        self.pos += 1;
        // Start of the run not yet copied; every cut below falls on an
        // ASCII byte, so the slices are on character boundaries.
        let mut run = self.pos;
        let mut unescaped: Option<String> = None;
        loop {
            match self.next_byte() {
                Some(b'"') => {
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(tail),
                        Some(mut text) => {
                            if keep {
                                text.push_str(tail);
                            }
                            Cow::Owned(text)
                        }
                    });
                }
                Some(b'\\') => {
                    let text = unescaped.get_or_insert_with(String::new);
                    if keep {
                        text.push_str(&self.src[run..self.pos]);
                    }
                    self.pos += 1;
                    let c = self.escape_sequence()?;
                    if keep {
                        unescaped.get_or_insert_with(String::new).push(c);
                    }
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
                None => return Err(self.fail("unterminated string")),
            }
        }
    }

    /// The character an escape stands for; the backslash is already read.
    fn escape_sequence(&mut self) -> Result<char, String> {
        let Some(b) = self.next_byte() else {
            return Err(self.fail("unterminated string"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = 0u32;
                for _ in 0..4 {
                    let digit = self.next_byte().and_then(|d| (d as char).to_digit(16));
                    let Some(digit) = digit else {
                        return Err(self.fail("\\u needs four hex digits"));
                    };
                    code = code * 16 + digit;
                    self.pos += 1;
                }
                // Our writers emit no surrogate pairs; a lone surrogate
                // reads as the replacement character.
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            _ => {
                self.pos -= 1;
                return Err(self.fail("unknown escape"));
            }
        })
    }

    fn open(&mut self, bracket: u8, what: &str) -> Result<(), String> {
        self.skip_ws();
        if self.next_byte() != Some(bracket) {
            return Err(self.fail(format_args!("expected {what}")));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.fail(format_args!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1;
        self.depth += 1;
        self.started <<= 1;
        Ok(())
    }

    /// Moves to the next element of the innermost open container,
    /// reading the comma before it; `false` once `close` ends it.
    fn advance(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        if self.next_byte() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.started >>= 1;
            return Ok(false);
        }
        if self.started & 1 != 0 {
            self.expect(b',')?;
        }
        self.started |= 1;
        Ok(true)
    }

    fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.advance(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads an object, handing `field` each key with the reader at its
    /// value; `field` must read or [skip](Reader::skip_value) that value.
    /// An error from `field` comes back prefixed with the key.
    pub fn obj(
        &mut self,
        mut field: impl FnMut(&mut Reader<'a>, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{', "an object")?;
        while let Some(key) = self.next_key()? {
            field(self, &key).map_err(|e| format!("{key}: {e}"))?;
        }
        Ok(())
    }

    /// Reads an array, calling `element` with the reader at each element.
    pub fn arr<T>(
        &mut self,
        mut element: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.open(b'[', "an array")?;
        let mut items = Vec::new();
        while self.advance(b']')? {
            items.push(element(self)?);
        }
        Ok(items)
    }

    /// Reads `null` as `None`, anything else through `some`.
    pub fn nullable<T>(
        &mut self,
        some: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        if self.peek()? == Kind::Null {
            self.null().map(|()| None)
        } else {
            some(self).map(Some)
        }
    }

    /// Reads past one value of any kind, checking its syntax on the way
    /// and collecting nothing.
    pub fn skip_value(&mut self) -> Result<(), String> {
        let base = self.depth;
        // A stack of one bit per container this call opened, the innermost
        // in bit 0: it is an object. A loop, not recursion: depth costs no
        // stack here.
        let mut objects: u128 = 0;
        loop {
            match self.peek()? {
                Kind::Null => self.null()?,
                Kind::Bool => self.bool().map(drop)?,
                Kind::Num => self.number().map(drop)?,
                Kind::Str => self.string(false).map(drop)?,
                Kind::Arr => {
                    self.open(b'[', "an array")?;
                    objects <<= 1;
                }
                Kind::Obj => {
                    self.open(b'{', "an object")?;
                    objects = objects << 1 | 1;
                }
            }
            // On to the next value, closing every container that ends.
            loop {
                if self.depth == base {
                    return Ok(());
                }
                let object = objects & 1 != 0;
                if self.advance(if object { b'}' } else { b']' })? {
                    if object {
                        // A key is a string like any other, never kept.
                        self.string(false)?;
                        self.skip_ws();
                        self.expect(b':')?;
                    }
                    break;
                }
                objects >>= 1;
            }
        }
    }

    /// Reads past one object and returns its text as it stands in the
    /// input: a document embedded in another, taken without a copy.
    pub(crate) fn object_text(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        if self.next_byte() != Some(b'{') {
            return Err(self.fail("expected an object"));
        }
        self.skip_value()?;
        Ok(&self.src[start..self.pos])
    }

    /// Confirms the document is over: nothing but whitespace is left.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.fail("trailing input"))
        }
    }
}

/// Whether `text` can be written as the value of a field of a top-level
/// object and read back by [`Reader::object_text`] as the same text:
/// exactly one object with nothing around it, nested at most one level
/// short of `MAX_DEPTH`, and no control byte, so that it stays on one
/// line and inside what strict JSON parsers accept of whitespace.
pub(crate) fn embeddable_object(text: &str) -> bool {
    let mut r = Reader {
        depth: 1,
        ..Reader::new(text)
    };
    !text.bytes().any(|b| b < 0x20) && r.object_text().is_ok_and(|o| o.len() == text.len())
}

/// A parsed JSON value: the owned tree for small documents (profiles,
/// traces, benchmark reports) and tests. Ledgers, provenance, coverage
/// maps and corpus entries read their fields off a [`Reader`] instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as f64; exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys sorted for deterministic comparisons.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document, rejecting trailing garbage and
    /// nesting past `MAX_DEPTH`.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut r = Reader::new(input);
        let v = Value::read(&mut r)?;
        r.end()?;
        Ok(v)
    }

    /// Reads the next value of `r` as a tree. A loop over an explicit
    /// stack of open containers, like [`Reader::skip_value`]: nesting
    /// costs heap, not call stack.
    fn read(r: &mut Reader<'_>) -> Result<Value, String> {
        enum Open {
            Arr(Vec<Value>),
            /// The map so far and the key its next value belongs to.
            Obj(BTreeMap<String, Value>, String),
        }
        let mut stack: Vec<Open> = Vec::new();
        loop {
            let mut complete = match r.peek()? {
                Kind::Null => Some(r.null().map(|()| Value::Null)?),
                Kind::Bool => Some(Value::Bool(r.bool()?)),
                Kind::Num => Some(Value::Num(r.f64()?)),
                Kind::Str => Some(Value::Str(r.str()?.into_owned())),
                Kind::Arr => {
                    r.open(b'[', "an array")?;
                    stack.push(Open::Arr(Vec::new()));
                    None
                }
                Kind::Obj => {
                    r.open(b'{', "an object")?;
                    stack.push(Open::Obj(BTreeMap::new(), String::new()));
                    None
                }
            };
            // Hand completed values to their containers until one of
            // them has another element to read.
            loop {
                let Some(top) = stack.last_mut() else {
                    return Ok(complete.expect("a document is one value"));
                };
                let more = match top {
                    Open::Arr(items) => {
                        items.extend(complete.take());
                        r.advance(b']')?
                    }
                    Open::Obj(map, key) => {
                        if let Some(v) = complete.take() {
                            map.insert(std::mem::take(key), v);
                        }
                        match r.next_key()? {
                            Some(next) => {
                                *key = next.into_owned();
                                true
                            }
                            None => false,
                        }
                    }
                };
                if more {
                    break;
                }
                complete = stack.pop().map(|done| match done {
                    Open::Arr(items) => Value::Arr(items),
                    Open::Obj(map, _) => Value::Obj(map),
                });
            }
        }
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
    /// Through `f64`, so exact only up to 2^53: documents whose integers
    /// may be larger read them with [`Reader::u64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("a\\b"), "\"a\\\\b\"");
        assert_eq!(escape("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(escape("\u{01}"), "\"\\u0001\"");
        assert_eq!(escape("\u{08}\u{0C}\u{1f}é"), "\"\\b\\f\\u001fé\"");
    }

    #[test]
    fn escape_round_trips_through_parser() {
        for s in [
            "simple",
            "with \"quotes\" and \\slashes\\",
            "control\u{01}\u{1f}chars",
            "newline\nand\ttab",
            "unicode: héllo ↔ 环",
        ] {
            let doc = format!("{{\"k\": {}}}", escape(s));
            let v = Value::parse(&doc).unwrap();
            assert_eq!(v.get("k").unwrap().as_str().unwrap(), s);
        }
    }

    #[test]
    fn parses_nested_documents() {
        let v =
            Value::parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Value::parse("{} extra").is_err());
        assert!(Value::parse("[1, 2,]").is_err());
        assert!(Value::parse("{\"a\"}").is_err());
        assert!(Value::parse("[,1]").is_err());
        assert!(Value::parse("[1 2]").is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn number_formatting_round_trips() {
        for x in [0.0, 1.0, -2.5, 1e-9, 12345.6789] {
            let v = Value::parse(&number(x)).unwrap();
            assert_eq!(v.as_f64(), Some(x));
        }
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn integers_are_read_exactly_or_not_at_all() {
        let read = |text: &str| Reader::new(text).u64();
        assert_eq!(read("0"), Ok(0));
        assert_eq!(read(" 9007199254740993"), Ok((1 << 53) + 1));
        assert_eq!(read("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(read("007"), Ok(7));
        for bad in ["18446744073709551616", "-1", "1.0", "1e3", "", "x", "-"] {
            assert!(read(bad).is_err(), "{bad:?} is not a u64");
        }
        assert_eq!(Reader::new("255").uint::<u8>(), Ok(255));
        let err = Reader::new("256").uint::<u8>().unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let mut written = String::new();
        for n in [0, 7, 10, u64::MAX] {
            written.clear();
            write_u64(&mut written, n).unwrap();
            assert_eq!(written, n.to_string());
        }
    }

    #[test]
    fn skipping_and_reading_share_one_number_grammar() {
        // Every run of up to six bytes a number is made of: the runs
        // `f64::from_str` takes (of those starting as a number does) are
        // the numbers, however the reader meets them.
        const BYTES: &[u8] = b"01-+.eE";
        let (mut runs, mut numbers) = (0, 0);
        for len in 1..=6 {
            for code in 0..BYTES.len().pow(len) {
                let run: String = (0..len)
                    .scan(code, |rest, _| {
                        let b = BYTES[*rest % BYTES.len()];
                        *rest /= BYTES.len();
                        Some(char::from(b))
                    })
                    .collect();
                let want = (run.starts_with('-') || run.starts_with(|c: char| c.is_ascii_digit()))
                    && run.parse::<f64>().is_ok();
                let field = format!("{{\"k\":{run},\"n\":1}}");
                let skipped = Reader::new(&field).obj(|r, _| r.skip_value()).is_ok();
                let tree = Value::parse(&field).is_ok();
                assert_eq!((skipped, tree), (want, want), "{run}");
                runs += 1;
                numbers += usize::from(want);
            }
        }
        assert!(
            runs > 100_000 && numbers > 1000,
            "{runs} runs, {numbers} numbers"
        );
    }

    #[test]
    fn an_embeddable_object_reads_back_as_itself() {
        let nested = |depth: usize| "{\"k\":".repeat(depth) + "0" + &"}".repeat(depth);
        for (text, embeddable) in [
            ("{}", true),
            (r#"{"a":[1,{"b":"\n"}],"c":-0.5e3}"#, true),
            (&nested(MAX_DEPTH - 1), true),
            (&nested(MAX_DEPTH), false),
            (" {}", false),
            ("{} ", false),
            ("{}{}", false),
            ("{\n}", false),
            ("{\"a\":\"\u{1}\"}", false),
            ("[]", false),
            ("\"{}\"", false),
            ("{\"a\":}", false),
            ("", false),
        ] {
            assert_eq!(embeddable_object(text), embeddable, "{text:?}");
            let doc = format!("{{\"x\":{text},\"y\":true}}");
            let mut r = Reader::new(&doc);
            let mut read = None;
            let whole = r.obj(|r, key| match key {
                "x" => r.object_text().map(|o| read = Some(o)),
                _ => r.skip_value(),
            });
            if embeddable {
                assert_eq!((whole, read), (Ok(()), Some(text)), "{text:?}");
            }
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#"["plain ↔", "tab\there", "\u0041\ud800"]"#);
        let items = r.arr(|r| r.str()).unwrap();
        assert!(matches!(items[0], Cow::Borrowed("plain ↔")));
        assert!(matches!(&items[1], Cow::Owned(s) if s == "tab\there"));
        assert_eq!(items[2], "A\u{FFFD}", "a lone surrogate is replaced");
        for bad in [r#""open"#, r#""\x""#, r#""\u12""#, r#""\u12g4""#, r#""\"#] {
            assert!(Reader::new(bad).str().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn objects_take_any_key_order_and_skip_the_unknown() {
        let doc = r#" { "later" : [ {"deep": [1, "]", {}]} , null ] , "n" : 1 , "n" : 2 } "#;
        let mut r = Reader::new(doc);
        let mut n = 0;
        r.obj(|r, key| match key {
            "n" => r.u64().map(|x| n = x),
            _ => r.skip_value(),
        })
        .unwrap();
        r.end().unwrap();
        assert_eq!(n, 2, "the later duplicate wins");
        // A skipped value is still checked.
        for bad in [
            r#"{"x": [1,]}"#,
            r#"{"x": tru}"#,
            r#"{"x": "\q"}"#,
            r#"{"x": 1.2.3}"#,
        ] {
            let mut r = Reader::new(bad);
            assert!(r.obj(|r, _| r.skip_value()).is_err(), "{bad}");
        }
        let err = Reader::new(r#"{"a": {"b": "x"}}"#)
            .obj(|r, _| r.obj(|r, _| r.u64().map(drop)))
            .unwrap_err();
        assert_eq!(err, "a: b: expected an unsigned integer at 1:13");
    }

    #[test]
    fn nesting_is_capped_for_every_way_of_reading() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Reader::new(&nested(MAX_DEPTH)).skip_value().is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 levels at 1:129");
        assert!(Reader::new(&nested(MAX_DEPTH + 1)).skip_value().is_err());
        // A megabyte of open brackets is an `Err`, on a small stack.
        let hostile = "[".repeat(1 << 20) + "\n" + &"{\"k\":".repeat(1 << 10);
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                assert!(Value::parse(&hostile).is_err());
                assert!(Reader::new(&hostile).skip_value().is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn errors_name_line_and_column() {
        let err = Value::parse("{\n  \"a\": 1,\n  \"b\": ?\n}").unwrap_err();
        assert_eq!(err, "expected a value at 3:8");
        assert_eq!(Value::parse("[1] 2").unwrap_err(), "trailing input at 1:5",);
    }

    #[test]
    fn the_hash_sink_agrees_with_hashing_the_text() {
        let mut text = String::new();
        let mut hash = Fnv1a::new();
        for s in ["", "a\"b", "héllo"] {
            write_str(&mut text, s).unwrap();
            write_str(&mut hash, s).unwrap();
        }
        write_u64(&mut text, 1234567890).unwrap();
        write_u64(&mut hash, 1234567890).unwrap();
        let mut whole = Fnv1a::new();
        whole.update(text.as_bytes());
        assert_eq!(hash.finish(), whole.finish());
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
