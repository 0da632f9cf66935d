//! A ratchet on process-global state (ROADMAP item 2): every `static` of
//! an `Atomic*` / lock / once-cell type in library or binary source must
//! be on the list below. The list may shrink — delete the line with the
//! global — but a new entry needs the argument that a run-owned value
//! would not do. The environment is process-global input too: flags are
//! the only way in, except for the one variable of [`ALLOWED_ENV`]. There
//! is one process to run: the `ebda` binary. And there is one counter
//! system: outside `crates/obs` a count is a profiler count, except the
//! family of [`LABELLED_COUNTERS`]. And there is one observability
//! session per command, opened and closed in [`SESSION_OWNERS`] only.
//! And there is one JSON writer: outside [`JSON_WRITER`], library code
//! writes a JSON object through that module's sinks, never by opening
//! one inside a format string.

use std::fs;
use std::path::{Path, PathBuf};

/// `file:NAME`, sorted. Five run-state globals and two immutable caches.
const ALLOWED: &[&str] = &[
    "crates/core/src/catalog.rs:SEQ", // cache: parsed catalog designs
    "crates/obs/src/metrics.rs:ENABLED",
    "crates/obs/src/metrics.rs:GLOBAL",
    "crates/obs/src/prof.rs:ENABLED",
    "crates/obs/src/prof.rs:EPOCH", // cache: the instant timestamps count from
    "crates/obs/src/prof.rs:REGISTRY",
    "crates/par/src/lib.rs:THREAD_OVERRIDE",
];

/// The variables library and binary source may read: the worker count
/// (`ebda-par`; CI runs the suite under it).
const ALLOWED_ENV: &[&str] = &["EBDA_THREADS"];

const SHARED_STATE_TYPES: &[&str] = &["Atomic", "Mutex", "RwLock", "OnceLock", "LazyLock"];

/// `file:family` of the counters library and binary source outside
/// `crates/obs` may add to: the one family labelled by run data there.
/// Every other counter family is named by the table in
/// `crates/obs/src/metrics.rs` and rendered from the profiler.
const LABELLED_COUNTERS: &[&str] =
    &["crates/sim/src/engine/instrument.rs:ebda_sim_channel_flits_total"];

/// The files that may construct, activate or finish an `ObsOptions` or
/// write the profile: the dispatcher and the session itself. Everywhere
/// else a command reads the session it is handed, `&ObsOptions`.
const SESSION_OWNERS: &[&str] = &["crates/bench/src/trace.rs", "src/bin/ebda.rs"];

/// The module whose writers every JSON document goes through.
const JSON_WRITER: &str = "crates/obs/src/json.rs";

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

/// The trimmed lines of one file outside `thread_local!` blocks and
/// `#[cfg(test)]` items. rustfmt closes an item at the indentation it
/// opened at, so a skipped item ends at its own first line (after its
/// attributes and comments) when that ends with `;` or `,`, and otherwise
/// at the next line of that indentation that starts with a closing
/// bracket: braces inside string literals, such as a test's JSON
/// snippets, cannot end it early.
fn outside_tests(source: &str) -> Vec<&str> {
    let mut kept = Vec::new();
    // The indentation of the item being skipped, and whether its body
    // is open (past the attributes and its first line).
    let mut skipping: Option<(&str, bool)> = None;
    for line in source.lines() {
        let code = line.trim();
        let indent = &line[..line.len() - line.trim_start().len()];
        if skipping.is_none() && code == "#[cfg(test)]" {
            skipping = Some((indent, false));
            continue;
        }
        if skipping.is_none() && code.starts_with("thread_local!") {
            skipping = Some((indent, false));
        }
        match skipping {
            None => kept.push(code),
            Some((_, false)) if code.starts_with("#[") || code.starts_with("//") => {}
            Some((at, false)) => {
                let single_line = code.ends_with(';') || code.ends_with(',');
                skipping = (!single_line).then_some((at, true));
            }
            Some((at, true)) => {
                if indent == at && code.starts_with(['}', ')', ']']) {
                    skipping = None;
                }
            }
        }
    }
    kept
}

/// The shared-state statics of one file, outside tests.
fn shared_statics(source: &str) -> Vec<String> {
    let mut found = Vec::new();
    for code in outside_tests(source) {
        let decl = ["static ", "pub static ", "pub(crate) static "]
            .iter()
            .find_map(|prefix| code.strip_prefix(prefix));
        if let Some((name, ty)) = decl.and_then(|d| d.split_once(':')) {
            if SHARED_STATE_TYPES.iter().any(|t| ty.contains(t)) {
                found.push(name.to_string());
            }
        }
    }
    found
}

/// Every library and binary source file (`src/`, `crates/*/src/`) as
/// (path relative to the root, text).
fn sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(
            &krate.expect("crate directory").path().join("src"),
            &mut files,
        );
    }
    files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).expect("under the root").display();
            let text = fs::read_to_string(path).expect("readable source");
            (rel.to_string(), text)
        })
        .collect()
}

#[test]
fn process_global_state_is_on_the_allowlist() {
    let mut found: Vec<String> = sources()
        .iter()
        .flat_map(|(rel, text)| {
            shared_statics(text)
                .into_iter()
                .map(move |name| format!("{rel}:{name}"))
        })
        .collect();
    found.sort();
    assert_eq!(
        found, ALLOWED,
        "process-global statics changed; see the module docs"
    );
}

/// The names passed to `env::var` / `env::var_os` in one file (test
/// modules included: a variable only tests set is still a second way in).
fn env_reads(source: &str) -> Vec<String> {
    let mut found = Vec::new();
    for call in ["env::var(", "env::var_os("] {
        for (at, _) in source.match_indices(call) {
            let arg = &source[at + call.len()..];
            let name = arg.strip_prefix('"').and_then(|a| a.split('"').next());
            found.push(name.unwrap_or("<not a literal>").to_string());
        }
    }
    found
}

/// What one file does with counters outside tests: a `counter_add` call
/// as `counter_add`, and a counter family spelled as a string literal
/// (`"ebda_…_total"` or `"ebda_…_ns"`) as its name.
fn counter_uses(source: &str) -> Vec<String> {
    let mut found = Vec::new();
    for code in outside_tests(source) {
        found.extend(
            code.contains("counter_add(")
                .then(|| "counter_add".to_string()),
        );
        for (at, _) in code.match_indices("\"ebda_") {
            let name = code[at + 1..].split('"').next().unwrap_or_default();
            if name.ends_with("_total") || name.ends_with("_ns") {
                found.push(name.to_string());
            }
        }
    }
    found
}

#[test]
fn counters_outside_obs_are_profiler_counts() {
    let mut found: Vec<String> = sources()
        .iter()
        .filter(|(rel, _)| !rel.starts_with("crates/obs/"))
        .flat_map(|(rel, text)| {
            counter_uses(text)
                .into_iter()
                .map(move |use_| format!("{rel}:{use_}"))
        })
        .collect();
    found.sort();
    let mut allowed: Vec<String> = LABELLED_COUNTERS.iter().map(|c| c.to_string()).collect();
    allowed.extend(LABELLED_COUNTERS.iter().map(|c| {
        let (file, _) = c.split_once(':').expect("file:family");
        format!("{file}:counter_add")
    }));
    allowed.sort();
    assert_eq!(
        found, allowed,
        "a count outside crates/obs is a prof::work or prof::phase; see crates/obs/src/metrics.rs"
    );
}

/// What one file does with the observability session outside tests and
/// imports: every `ObsOptions` that is not a shared borrow
/// (`&ObsOptions`), and every call of `activate` or `write_profile`.
/// Constructing a session (`ObsOptions::parse`), activating it (`&mut`)
/// and finishing it (by value) all need one of those.
fn session_uses(source: &str) -> Vec<String> {
    let mut found = Vec::new();
    for code in outside_tests(source) {
        if code.starts_with("use ") || code.starts_with("//") {
            continue;
        }
        for (at, _) in code.match_indices("ObsOptions") {
            if !code[..at].ends_with('&') {
                found.push(code.to_string());
            }
        }
        for call in [".activate(", "write_profile("] {
            if code.contains(call) {
                found.push(code.to_string());
            }
        }
    }
    found
}

#[test]
fn sessions_open_and_close_in_the_dispatcher_only() {
    let found: Vec<String> = sources()
        .iter()
        .filter(|(rel, _)| !SESSION_OWNERS.contains(&rel.as_str()))
        .flat_map(|(rel, text)| {
            session_uses(text)
                .into_iter()
                .map(move |code| format!("{rel}: {code}"))
        })
        .collect();
    assert_eq!(
        found, [""; 0],
        "a command reads the &ObsOptions it is handed; see crates/bench/src/trace.rs"
    );
}

/// The format strings of one file's `format!` / `write!` / `writeln!`
/// calls outside tests that open a JSON object: an escaped brace followed
/// by a quote, `{{\"` in a string or `{{"` in a raw string. The format
/// string is the first string literal after the macro's parenthesis.
fn inline_json_objects(source: &str) -> Vec<String> {
    let code = outside_tests(source).join("\n");
    let mut found = Vec::new();
    for mac in ["format!(", "write!(", "writeln!("] {
        for (at, _) in code.match_indices(mac) {
            let rest = &code[at + mac.len()..];
            let Some(open) = rest.find('"') else {
                continue;
            };
            let hashes = rest[..open].len() - rest[..open].trim_end_matches('#').len();
            let raw = rest[..open - hashes].ends_with('r');
            let body = &rest[open + 1..];
            let literal = if raw {
                let close = format!("\"{}", "#".repeat(hashes));
                body.split(close.as_str()).next().unwrap_or(body)
            } else {
                let mut escaped = false;
                let end = body.char_indices().find(|&(_, c)| {
                    let closes = c == '"' && !escaped;
                    escaped = c == '\\' && !escaped;
                    closes
                });
                &body[..end.map_or(body.len(), |(i, _)| i)]
            };
            if literal.contains(if raw { "{{\"" } else { "{{\\\"" }) {
                found.push(literal.to_string());
            }
        }
    }
    found
}

#[test]
fn json_is_written_through_one_writer() {
    let found: Vec<String> = sources()
        .iter()
        .filter(|(rel, _)| rel != JSON_WRITER)
        .flat_map(|(rel, text)| {
            inline_json_objects(text)
                .into_iter()
                .map(move |literal| format!("{rel}: {literal}"))
        })
        .collect();
    assert_eq!(
        found, [""; 0],
        "write JSON through the sinks of {JSON_WRITER} (write_str, write_u64, write_list)"
    );
}

#[test]
fn the_environment_is_read_for_one_variable_only() {
    let mut found: Vec<String> = sources()
        .iter()
        .flat_map(|(rel, text)| {
            env_reads(text)
                .into_iter()
                .filter(|name| !ALLOWED_ENV.contains(&name.as_str()))
                .map(move |name| format!("{rel}:{name}"))
        })
        .collect();
    found.sort();
    assert_eq!(found, [""; 0], "flags only: see crates/bench/src/trace.rs");
}

/// One front door: `src/bin/ebda.rs` is the only executable source of
/// any package, and no package has a `cargo bench` target.
#[test]
fn ebda_is_the_only_executable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.to_path_buf()];
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        packages.push(krate.expect("crate directory").path());
    }
    let mut executables = Vec::new();
    for package in &packages {
        let main = package.join("src/main.rs");
        executables.extend(main.exists().then_some(main));
        if package.join("src/bin").is_dir() {
            rust_files(&package.join("src/bin"), &mut executables);
        }
        let benches = package.join("benches");
        assert!(!benches.exists(), "{} exists", benches.display());
        let manifest = fs::read_to_string(package.join("Cargo.toml")).expect("Cargo.toml");
        for target in ["[[bin]]", "[[bench]]"] {
            assert!(
                !manifest.contains(target),
                "{target} in {}",
                package.display()
            );
        }
    }
    let executables: Vec<_> = executables
        .iter()
        .map(|path| {
            path.strip_prefix(root)
                .expect("under the root")
                .display()
                .to_string()
        })
        .collect();
    assert_eq!(executables, ["src/bin/ebda.rs"]);
}

#[test]
fn the_scanner_sees_what_it_should() {
    let source = "\
static A: AtomicBool = AtomicBool::new(false);
static TABLE: [u8; 2] = [1, 2];
fn f() {
    static B: OnceLock<u8> = OnceLock::new();
}
thread_local! {
    static C: RefCell<Mutex<u8>> = const { RefCell::new(Mutex::new(0)) };
}
pub(crate) static D: Mutex<()> = Mutex::new(());
#[cfg(test)]
mod tests {
    static E: Mutex<()> = Mutex::new(());
}
";
    assert_eq!(shared_statics(source), ["A", "B", "D"]);
    let source = "\
m::global().counter_add(\"ebda_x_flits_total\", &l, 1);
gauge_set(\"ebda_x_depth\", &[], 0.0); // \"ebda_x_wall_ns\"
#[cfg(test)]
mod tests {
    reg.counter_add(\"ebda_x_runs_total\", &[], 2);
}
";
    assert_eq!(
        counter_uses(source),
        ["counter_add", "ebda_x_flits_total", "ebda_x_wall_ns"]
    );
    let source = "\
use crate::trace::{ObsOptions, Traces};
/// Reads the [`ObsOptions`] it is handed.
fn run(args: Args, obs: &ObsOptions) {
    let mut own = ObsOptions::parse(&mut args, &[])?;
    own.activate(&[]);
    write_profile(path)?;
}
fn close(obs: ObsOptions) {}
#[cfg(test)]
mod tests {
    let obs = ObsOptions::parse(&mut args, &[]).unwrap();
}
";
    assert_eq!(
        session_uses(source),
        [
            "let mut own = ObsOptions::parse(&mut args, &[])?;",
            "own.activate(&[]);",
            "write_profile(path)?;",
            "fn close(obs: ObsOptions) {}",
        ]
    );
    let source = r##"
let a = format!("{{\"kind\":{},\"cycle\":{}}}", k, c);
write!(out, ",\"hash\":\"{hash:016x}\",\"verdict\":")?;
out.write_str("{\"format\":")?;
let _ = writeln!(
    out,
    r#"{{"raw":{n}}}"#,
);
let set = format!("{{{}}}", parts.join(","));
let b = format!("{} \"{{\\\"", x);
#[cfg(test)]
mod tests {
    let unbalanced = ("{\"a\":", false);
    let c = format!("{{\"later\":{}}}", body);
}
"##;
    assert_eq!(
        inline_json_objects(source),
        [r#"{{\"kind\":{},\"cycle\":{}}}"#, r#"{{"raw":{n}}}"#]
    );
    let source = "let a = std::env::var(\"EBDA_X\"); env::var_os(name); environment::var(1)";
    assert_eq!(env_reads(source), ["EBDA_X", "<not a literal>"]);
}
