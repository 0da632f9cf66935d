//! The CSV reader the round-trip tests check `ebda_obs::csv`'s writer
//! with (`mod csv_reader;` under `#[cfg(test)]` in this crate, by path in
//! `crates/sim/tests/recorder.rs` and the facade's `tests/cli.rs`): it
//! accepts exactly what the writer emits.

/// Splits one CSV line into fields, undoing the quoting of
/// `ebda_obs::csv::field`.
///
/// Returns an error on an unterminated quote.
pub fn parse_line(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
    }
    if in_quotes {
        return Err(format!("unterminated quote in CSV line: {line}"));
    }
    fields.push(cur);
    Ok(fields)
}
