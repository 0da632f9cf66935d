//! The comparison behind the checked-in lists (`tests/public_api.txt`,
//! `tests/work_counters.txt`).

use std::collections::BTreeMap;

/// `Err` naming every line `got` adds to the list `want` (`+`) and every
/// one it drops (`-`), sorted; a changed line is both.
pub fn compare(got: &[String], want: &[String]) -> Result<(), String> {
    let mut count: BTreeMap<&str, i64> = BTreeMap::new();
    for line in got {
        *count.entry(line).or_default() += 1;
    }
    for line in want {
        *count.entry(line).or_default() -= 1;
    }
    let diff: Vec<String> = count
        .iter()
        .filter(|&(_, &n)| n != 0)
        .map(|(line, &n)| format!("{} {line}", if n > 0 { '+' } else { '-' }))
        .collect();
    if diff.is_empty() {
        Ok(())
    } else {
        Err(diff.join("\n"))
    }
}
