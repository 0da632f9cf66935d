//! A ratchet on the public surface (ROADMAP item 9): every `pub`
//! declaration in library or binary source (`src/`, `crates/*/src/`),
//! `#[cfg(test)]` items left out, is listed in `tests/public_api.txt` as
//! `file:kind name`, sorted. The list may shrink — narrow an item to
//! `pub(crate)` once the binary, another crate, `benchmark/` and the
//! examples stop naming it — but a new public item is a visible diff of
//! that list. After a deliberate change, rewrite the list with
//!
//! ```text
//! EBDA_BLESS=1 cargo test --test public_api_ratchet
//! ```

mod list_diff;

use list_diff::compare;
use std::fs;
use std::path::{Path, PathBuf};

const KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for path in entries.map(|e| e.expect("directory entry").path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `source` with line comments and string and char literals blanked out
/// (newlines kept), so neither a `pub fn` in a doc comment nor a brace
/// in a string counts. The sources have no block comments.
fn code_only(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == 'r'
            && (i == 0 || !ident(chars[i - 1]) || chars[i - 1] == 'b')
            && matches!(next, Some('"' | '#'))
        {
            // A raw string: `r`, n hashes, a quote, … a quote, n hashes.
            let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
            if chars.get(i + 1 + hashes) != Some(&'"') {
                out.push(c);
                i += 1;
                continue;
            }
            i += hashes + 2;
            while i < chars.len() {
                let closes = chars[i] == '"'
                    && chars[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&h| h == '#')
                        .count()
                        == hashes;
                if closes {
                    i += hashes + 1;
                    break;
                }
                blank(&mut out, chars[i]);
                i += 1;
            }
        } else if c == '"' {
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
                blank(&mut out, chars[i]);
                i += 1;
            }
            i += 1;
        } else if c == '\'' && (next == Some('\\') || chars.get(i + 2) == Some(&'\'')) {
            // A char literal (a lifetime has no closing quote).
            i += if next == Some('\\') { 3 } else { 1 };
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            i += 1;
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// The `pub` declarations of one file as `kind name` in source order —
/// `use` with its whole path — skipping `#[cfg(test)]` items
/// (brace-balanced from the item after the attribute).
fn public_items(source: &str) -> Vec<String> {
    let code = code_only(source);
    let mut found = Vec::new();
    let mut skipping: Option<i64> = None;
    let mut lines = code.lines().map(str::trim);
    while let Some(line) = lines.next() {
        if let Some(depth) = skipping.as_mut() {
            *depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
            if *depth <= 0 && !line.starts_with("#[") && line.ends_with([';', '}']) {
                skipping = None;
            }
            continue;
        }
        if line == "#[cfg(test)]" {
            skipping = Some(0);
            continue;
        }
        let Some(rest) = line.strip_prefix("pub ") else {
            continue;
        };
        let rest = ["const fn ", "unsafe fn ", "async fn "]
            .iter()
            .find_map(|q| rest.strip_prefix(q).map(|r| format!("fn {r}")))
            .unwrap_or_else(|| rest.to_string());
        let Some(kind) = KINDS.iter().find(|k| rest.starts_with(&format!("{k} "))) else {
            continue;
        };
        let rest = &rest[kind.len() + 1..];
        let name = if *kind == "use" {
            let mut tree = rest.to_string();
            while !tree.contains(';') {
                tree.push(' ');
                tree.push_str(lines.next().expect("a `use` ends with `;`"));
            }
            let tree = tree.split(';').next().unwrap_or_default();
            let tree = tree.split_whitespace().collect::<Vec<_>>().join(" ");
            tree.replace("{ ", "{")
                .replace(" }", "}")
                .replace(",}", "}")
        } else {
            let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'));
            rest[..end.unwrap_or(rest.len())].to_string()
        };
        found.push(format!("{kind} {name}"));
    }
    found
}

/// The public surface of the tree, `file:kind name`, sorted.
fn surface() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(
            &krate.expect("crate directory").path().join("src"),
            &mut files,
        );
    }
    let mut found: Vec<String> = files
        .iter()
        .flat_map(|path| {
            let rel = path.strip_prefix(root).expect("under the root").display();
            let text = fs::read_to_string(path).expect("readable source");
            public_items(&text)
                .into_iter()
                .map(move |item| format!("{rel}:{item}"))
        })
        .collect();
    found.sort();
    found
}

#[test]
fn the_public_surface_is_the_checked_in_list() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/public_api.txt");
    let got = surface();
    if std::env::var_os("EBDA_BLESS").is_some() {
        fs::write(&path, got.join("\n") + "\n").expect("write tests/public_api.txt");
        return;
    }
    let text = fs::read_to_string(&path).expect("tests/public_api.txt");
    let want: Vec<String> = text.lines().map(String::from).collect();
    if let Err(diff) = compare(&got, &want) {
        panic!(
            "the public surface changed (+ new, - gone); narrow a new item to \
             pub(crate) unless something outside its crate names it, then \
             rerun with EBDA_BLESS=1:\n{diff}"
        );
    }
}

#[test]
fn the_scanner_sees_what_it_should() {
    let source = r#"
//! pub fn in_a_doc_comment() {}
pub fn plain() {}
pub(crate) fn narrowed() {}
pub fn spread<T>(
    a: T,
    b: &str,
) -> T
where
    T: Copy,
{
    let _ = "pub fn in_a_string() { {";
    a
}
pub const fn constant_fn() {}
pub const LIMIT: usize = 4;
pub use crate::a::{
    One,
    Two as Deux,
};
pub(crate) use crate::b::Three;
#[cfg(test)]
mod tests {
    pub fn helper() -> [char; 2] {
        ['}', '\'']
    }
}
#[cfg(test)]
pub mod test_only;
pub struct After<'a>(&'a str);
"#;
    let items = public_items(source);
    assert_eq!(
        items,
        [
            "fn plain",
            "fn spread",
            "fn constant_fn",
            "const LIMIT",
            "use crate::a::{One, Two as Deux}",
            "struct After",
        ]
    );

    // A source with one public item more, or one less, than the list
    // fails the comparison, naming the item.
    let listed: Vec<String> = items.iter().map(|i| format!("lib.rs:{i}")).collect();
    let scan = |source: &str| -> Vec<String> {
        let items = public_items(source).into_iter();
        items.map(|i| format!("lib.rs:{i}")).collect()
    };
    assert_eq!(compare(&scan(source), &listed), Ok(()));
    let grown = format!("{source}pub fn added() {{}}\n");
    assert_eq!(
        compare(&scan(&grown), &listed),
        Err("+ lib.rs:fn added".into())
    );
    let shrunk = source.replace("pub fn plain", "fn plain");
    assert_eq!(
        compare(&scan(&shrunk), &listed),
        Err("- lib.rs:fn plain".into())
    );
}
