//! A ratchet on process-global state (ROADMAP item 2): every `static` of
//! an `Atomic*` / lock / once-cell type in library or binary source must
//! be on the list below. The list may shrink — delete the line with the
//! global — but a new entry needs the argument that a run-owned value
//! would not do. The environment is process-global input too: flags are
//! the only way in, except for the one variable of [`ALLOWED_ENV`]. And
//! there is one process to run: the `ebda` binary.

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

/// The shared-state statics of one file, skipping `thread_local!` blocks
/// and `#[cfg(test)]` items (brace-balanced from their opening line).
fn shared_statics(source: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut skipping = false;
    let mut depth = 0i64;
    for line in source.lines() {
        let code = line.trim();
        if !skipping && (code == "#[cfg(test)]" || code.starts_with("thread_local!")) {
            skipping = true;
            depth = 0;
        }
        if skipping {
            depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            // The attribute line itself opens nothing; the item after it does.
            skipping = depth > 0 || !code.contains(['{', '}']);
            continue;
        }
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
    let source = "let a = std::env::var(\"EBDA_X\"); env::var_os(name); environment::var(1)";
    assert_eq!(env_reads(source), ["EBDA_X", "<not a literal>"]);
}
