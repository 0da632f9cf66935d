//! Hand-rolled CSV writing (RFC 4180 subset).
//!
//! Fields containing commas, quotes or newlines are quoted with `"`
//! doubling; everything else is written bare. The round-trip tests read
//! rows back with `tests/csv_reader/mod.rs`.

/// Escapes one field for CSV output.
pub(crate) fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        s.to_string()
    }
}

/// A CSV document: the header line, then one line per item, each
/// written by `row`.
pub(crate) fn table<'a, T: 'a>(
    header: &str,
    items: impl IntoIterator<Item = &'a T>,
    row: fn(&T, &mut String),
) -> String {
    let mut out = format!("{header}\n");
    for item in items {
        row(item, &mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv_reader::parse_line;

    #[test]
    fn plain_fields_pass_through() {
        assert_eq!(field("abc"), "abc");
        assert_eq!(field("a b"), "a b");
    }

    #[test]
    fn special_fields_are_quoted_and_round_trip() {
        for s in ["a,b", "say \"hi\"", "line\nbreak", ""] {
            let encoded = format!("{},tail", field(s));
            // The embedded-newline case is a single logical row; our
            // writers never emit embedded newlines, but quoting keeps the
            // parser correct on one-line inputs.
            if !s.contains('\n') {
                let back = parse_line(&encoded).unwrap();
                assert_eq!(back, vec![s.to_string(), "tail".to_string()]);
            }
        }
    }
}
