//! Deterministic self-profiler: phase-level wall-clock *and* work-unit
//! accounting for the tool's own hot paths, plus per-worker busy
//! timelines for the `ebda-par` pool.
//!
//! This module is the one place a count is kept. It answers "where does
//! the tool itself spend its time, and how much algorithmic work did
//! each phase do?" — it is the only timing-span facility in the
//! workspace, and the unlabelled counter families of `/metrics` are
//! rendered from it ([`crate::metrics`]). Every phase records two kinds
//! of numbers:
//!
//! * **wall nanoseconds** — honest but noisy, never compared across
//!   runs by machines;
//! * **work units** — deterministic counters of the algorithmic work
//!   done (cycles simulated, GFP sweeps, CDG edges visited, shrink
//!   evaluations, artifacts checked). These are *byte-identical at any
//!   thread count* for run-to-completion workloads, which is what lets
//!   `tests/work_counters.rs` pin them by equality on any host.
//!
//! Phases form a **static hierarchy through their names**: a phase is a
//! slash path like `sim/run/route` or `oracle/evaluate/dally`. Using
//! literal paths instead of a runtime call stack is what keeps the
//! counter tree thread-count invariant — a worker thread records
//! `oracle/evaluate/brute` whether or not `oracle/campaign` is on *its*
//! stack.
//!
//! Off by default: until [`set_enabled`] every instrumentation site is
//! a single relaxed atomic load and **zero allocations** (pinned by
//! `crates/sim/tests/prof_overhead.rs`). Hot loops batch locally and
//! flush once per run through [`record`]/[`work`]; a [`work`] charge to
//! a unit the phase already has allocates nothing either. A `/metrics`
//! scrape reads the phases under this registry's lock
//! (`with_phases`), so live counters move while a campaign runs.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{self, Field, Value};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the profiler on or off process-wide. Enabling pins the epoch
/// that worker-segment timestamps are relative to.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the profiler is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide instant worker-segment timestamps count from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the profiler epoch (pinned at the first
/// call of [`set_enabled`]`(true)` or of this function).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Aggregated statistics of one phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Times the phase ran (or operations it timed, for batched flushes).
    pub calls: u64,
    /// Total wall nanoseconds attributed to the phase.
    pub wall_ns: u64,
    /// Deterministic work-unit counters, keyed by unit name.
    pub work: BTreeMap<String, u64>,
}

/// One contiguous busy slice of a pool worker, relative to the epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSegment {
    /// Worker index within its pool job.
    pub worker: usize,
    /// What the worker was computing (e.g. `task 17`).
    pub label: String,
    /// Slice start, nanoseconds since the profiler epoch.
    pub start_ns: u64,
    /// Slice duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Default)]
struct Registry {
    phases: BTreeMap<&'static str, PhaseStat>,
    workers: Vec<WorkerSegment>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard timing one phase invocation; see [`phase`].
#[must_use = "the phase is timed until the guard drops"]
pub struct PhaseGuard {
    armed: Option<(&'static str, Instant)>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((name, t0)) = self.armed.take() {
            record(name, 1, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Starts timing one invocation of `name`; the returned guard records
/// on drop. Disabled path: one atomic load, no clock read, no
/// allocation.
pub fn phase(name: &'static str) -> PhaseGuard {
    PhaseGuard {
        armed: enabled().then(|| (name, Instant::now())),
    }
}

/// Batch-records `calls` invocations totalling `wall_ns` against
/// `path`. Hot loops accumulate locally and flush once through here.
pub fn record(path: &'static str, calls: u64, wall_ns: u64) {
    if !enabled() || (calls == 0 && wall_ns == 0) {
        return;
    }
    let mut r = lock();
    let p = r.phases.entry(path).or_default();
    p.calls += calls;
    p.wall_ns += wall_ns;
}

/// Charges `amount` deterministic work units of kind `unit` to `path`.
pub fn work(path: &'static str, unit: &'static str, amount: u64) {
    if !enabled() || amount == 0 {
        return;
    }
    let mut r = lock();
    let p = r.phases.entry(path).or_default();
    // Look the unit up first: only its first charge allocates its name.
    match p.work.get_mut(unit) {
        Some(total) => *total += amount,
        None => {
            p.work.insert(unit.to_string(), amount);
        }
    }
}

/// Most worker segments the registry keeps: a long campaign profiled
/// for its `/metrics` counters must not grow without bound.
const MAX_SEGMENTS: usize = 1 << 18;

/// Appends a batch of worker busy segments (one lock for the whole
/// batch; workers push once at exit, not per task), up to
/// `MAX_SEGMENTS` in all.
pub fn push_worker_segments(segments: Vec<WorkerSegment>) {
    if !enabled() || segments.is_empty() {
        return;
    }
    let mut r = lock();
    let room = MAX_SEGMENTS.saturating_sub(r.workers.len());
    r.workers.extend(segments.into_iter().take(room));
}

/// Runs `f` over the recorded phases under the registry lock — no copy,
/// and worker segments untouched. `/metrics` renders its counters
/// through here at scrape time.
pub(crate) fn with_phases<R>(f: impl FnOnce(&BTreeMap<&'static str, PhaseStat>) -> R) -> R {
    f(&lock().phases)
}

/// Clears all recorded phases and worker segments.
pub fn reset() {
    let mut r = lock();
    r.phases.clear();
    r.workers.clear();
}

/// Copies the registry out; worker segments are sorted by
/// `(worker, start_ns, label)` so rendering order is stable.
pub fn snapshot() -> ProfSnapshot {
    let r = lock();
    let mut workers = r.workers.clone();
    workers.sort_by(|a, b| (a.worker, a.start_ns, &a.label).cmp(&(b.worker, b.start_ns, &b.label)));
    ProfSnapshot {
        phases: r
            .phases
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        workers,
    }
}

/// A point-in-time copy of the profiler registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfSnapshot {
    /// Phase path → aggregated stats, sorted by path.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Worker busy slices, sorted for stable rendering.
    pub workers: Vec<WorkerSegment>,
}

fn human_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

impl ProfSnapshot {
    /// Direct children of `path` in the slash hierarchy.
    fn children<'a>(&'a self, path: &str) -> impl Iterator<Item = (&'a String, &'a PhaseStat)> {
        let prefix = format!("{path}/");
        self.phases
            .iter()
            .filter(move |(p, _)| p.starts_with(&prefix) && !p[prefix.len()..].contains('/'))
    }

    /// Wall ns of `path` not accounted to any recorded direct child.
    fn self_ns(&self, path: &str, stat: &PhaseStat) -> u64 {
        let child_ns: u64 = self.children(path).map(|(_, s)| s.wall_ns).sum();
        stat.wall_ns.saturating_sub(child_ns)
    }

    /// Renders the **deterministic** side of the snapshot — one line per
    /// phase with its call count and work units, *no wall-clock* — the
    /// artifact that must be byte-identical at every thread count. A
    /// phase with wall time only (no calls, no work, such as the pool's
    /// `par/idle`) has no line.
    pub fn counters_text(&self) -> String {
        let mut out = String::new();
        for (path, stat) in &self.phases {
            if stat.calls == 0 && stat.work.is_empty() {
                continue;
            }
            let _ = write!(out, "{path} calls={}", stat.calls);
            for (unit, v) in &stat.work {
                let _ = write!(out, " {unit}={v}");
            }
            out.push('\n');
        }
        out
    }

    /// Renders the aggregated self-time/total-time table (wall-clock
    /// included — human consumption, not comparison).
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>12} {:>12}  work",
            "phase", "calls", "total", "self"
        );
        for (path, stat) in &self.phases {
            let work: Vec<String> = stat.work.iter().map(|(u, v)| format!("{u}={v}")).collect();
            let _ = writeln!(
                out,
                "{:<34} {:>10} {:>12} {:>12}  {}",
                path,
                stat.calls,
                human_ns(stat.wall_ns),
                human_ns(self.self_ns(path, stat)),
                work.join(" ")
            );
        }
        let mut by_worker: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.workers {
            *by_worker.entry(s.worker).or_insert(0) += s.dur_ns;
        }
        if !by_worker.is_empty() {
            let _ = writeln!(out, "workers ({} busy segments):", self.workers.len());
            for (w, busy) in by_worker {
                let _ = writeln!(out, "  worker {w:<3} busy {}", human_ns(busy));
            }
        }
        out
    }

    /// Serializes the snapshot as the `ebdaProfile` JSON object: a flat
    /// `phases` array, a nested flame-style `flame` tree over the slash
    /// hierarchy, and the raw worker segments.
    pub fn to_json(&self) -> String {
        use Field::{Str, U64};
        let mut out = String::from("{\"phases\":");
        let _ = json::write_list(&mut out, ",", &self.phases, |out, (path, stat)| {
            let head = [
                ("path", Str(path)),
                ("calls", U64(stat.calls)),
                ("wall_ns", U64(stat.wall_ns)),
            ];
            out.push('{');
            json::write_members(out, ",", head)?;
            out.push_str(",\"work\":");
            let work = stat.work.iter().map(|(unit, &v)| (unit.as_str(), U64(v)));
            json::write_object(out, ",", work)?;
            out.write_char('}')
        });
        out.push_str(",\"flame\":");
        out.push_str(&self.flame_json());
        out.push_str(",\"workers\":");
        let _ = json::write_list(&mut out, ",", &self.workers, |out, s| {
            let segment = [
                ("worker", U64(s.worker as u64)),
                ("label", Str(&s.label)),
                ("start_ns", U64(s.start_ns)),
                ("dur_ns", U64(s.dur_ns)),
            ];
            json::write_object(out, ",", segment)
        });
        out.push('}');
        out
    }

    /// The flame-style tree alone: nested `{name, wall_ns, children}`
    /// nodes over the slash hierarchy, rooted at `"profile"`.
    pub fn flame_json(&self) -> String {
        #[derive(Default)]
        struct Node {
            wall_ns: u64,
            children: BTreeMap<String, Node>,
        }
        let mut root = Node::default();
        for (path, stat) in &self.phases {
            let mut node = &mut root;
            for seg in path.split('/') {
                node = node.children.entry(seg.to_string()).or_default();
            }
            node.wall_ns = stat.wall_ns;
        }
        // A parent's rendered value covers at least its children, so
        // pure-organizational nodes (never timed directly) still size
        // correctly in a flame view.
        fn total(node: &Node) -> u64 {
            node.wall_ns.max(node.children.values().map(total).sum())
        }
        fn render(out: &mut String, name: &str, node: &Node) -> fmt::Result {
            let wall_ns = Field::U64(total(node));
            out.push('{');
            json::write_members(out, ",", [("name", Field::Str(name)), ("wall_ns", wall_ns)])?;
            out.push_str(",\"children\":");
            json::write_list(out, ",", &node.children, |out, (name, c)| {
                render(out, name, c)
            })?;
            out.write_char('}')
        }
        let mut out = String::new();
        let _ = render(&mut out, "profile", &root);
        out
    }

    /// Parses a snapshot back from the `ebdaProfile` JSON object (the
    /// inverse of [`Self::to_json`], used by `ebda profile`).
    pub fn from_value(v: &Value) -> Result<ProfSnapshot, String> {
        let fail = |what: &str, key: &str| format!("ebdaProfile {what}: missing {key}");
        let num = |v: &Value, what: &str, key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| fail(what, key))
        };
        let text = |v: &Value, what: &str, key: &str| {
            let text = v.get(key).and_then(Value::as_str).map(str::to_string);
            text.ok_or_else(|| fail(what, key))
        };
        let mut snap = ProfSnapshot::default();
        let phases = v
            .get("phases")
            .and_then(Value::as_arr)
            .ok_or("ebdaProfile: missing phases array")?;
        for (i, p) in phases.iter().enumerate() {
            let what = &format!("phase {i}");
            let path = text(p, what, "path")?;
            let mut stat = PhaseStat {
                calls: num(p, what, "calls")?,
                wall_ns: num(p, what, "wall_ns")?,
                work: BTreeMap::new(),
            };
            if let Some(Value::Obj(work)) = p.get("work") {
                for (unit, amount) in work {
                    let amount = amount.as_u64();
                    let amount = amount
                        .ok_or_else(|| format!("ebdaProfile {what}: non-integer work unit"))?;
                    stat.work.insert(unit.clone(), amount);
                }
            }
            snap.phases.insert(path, stat);
        }
        let workers = v.get("workers").and_then(Value::as_arr).unwrap_or_default();
        for (i, w) in workers.iter().enumerate() {
            let what = &format!("worker segment {i}");
            snap.workers.push(WorkerSegment {
                worker: num(w, what, "worker")? as usize,
                label: text(w, what, "label")?,
                start_ns: num(w, what, "start_ns")?,
                dur_ns: num(w, what, "dur_ns")?,
            });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One lock for every test touching the process-global registry.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn isolated() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        guard
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        {
            let _p = phase("unit/test");
        }
        work("unit/test", "things", 5);
        record("unit/test", 1, 10);
        push_worker_segments(vec![WorkerSegment {
            worker: 0,
            label: "x".into(),
            start_ns: 0,
            dur_ns: 1,
        }]);
        let snap = snapshot();
        assert!(snap.phases.is_empty());
        assert!(snap.workers.is_empty());
    }

    #[test]
    fn phases_accumulate_calls_work_and_wall() {
        let _g = isolated();
        {
            let _p = phase("unit/acc");
        }
        {
            let _p = phase("unit/acc");
        }
        work("unit/acc", "evals", 3);
        work("unit/acc", "evals", 4);
        work("unit/acc", "edges", 1);
        record("unit/acc/inner", 10, 1_000);
        set_enabled(false);
        let snap = snapshot();
        let acc = &snap.phases["unit/acc"];
        assert_eq!(acc.calls, 2);
        assert_eq!(acc.work["evals"], 7);
        assert_eq!(acc.work["edges"], 1);
        assert_eq!(snap.phases["unit/acc/inner"].calls, 10);
        assert_eq!(snap.phases["unit/acc/inner"].wall_ns, 1_000);
    }

    #[test]
    fn counters_text_is_deterministic_and_wall_free() {
        let _g = isolated();
        work("b/two", "units", 2);
        work("a/one", "zz", 9);
        work("a/one", "aa", 1);
        record("a/one", 5, 123_456);
        record("c/wall", 0, 99);
        set_enabled(false);
        let text = snapshot().counters_text();
        assert_eq!(text, "a/one calls=5 aa=1 zz=9\nb/two calls=0 units=2\n");
        assert!(!text.contains("123"), "wall ns must never leak: {text}");
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let _g = isolated();
        record("p", 1, 100);
        record("p/a", 1, 30);
        record("p/b", 1, 20);
        record("p/a/deep", 1, 25); // grandchild: not subtracted from p
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.self_ns("p", &snap.phases["p"]), 50);
        assert_eq!(snap.self_ns("p/a", &snap.phases["p/a"]), 5);
        assert_eq!(snap.self_ns("p/b", &snap.phases["p/b"]), 20);
        let table = snap.table();
        assert!(table.contains("p/a/deep"), "{table}");
    }

    #[test]
    fn json_round_trips_through_from_value() {
        let _g = isolated();
        record("sim/run", 2, 5_000);
        work("sim/run", "cycles", 900);
        record("sim/run/route", 40, 2_000);
        work("sim/run/route", "routes", 40);
        push_worker_segments(vec![
            WorkerSegment {
                worker: 1,
                label: "task 1".into(),
                start_ns: 50,
                dur_ns: 10,
            },
            WorkerSegment {
                worker: 0,
                label: "task 0".into(),
                start_ns: 5,
                dur_ns: 20,
            },
        ]);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.workers[0].worker, 0, "segments sorted by worker");
        let doc = Value::parse(&snap.to_json()).expect("valid json");
        let back = ProfSnapshot::from_value(&doc).expect("round-trip");
        assert_eq!(back, snap);
        // The flame tree nests sim → run → route.
        let flame = doc.get("flame").expect("flame");
        let sim = &flame.get("children").unwrap().as_arr().unwrap()[0];
        assert_eq!(sim.get("name").unwrap().as_str(), Some("sim"));
        let run = &sim.get("children").unwrap().as_arr().unwrap()[0];
        assert_eq!(run.get("wall_ns").unwrap().as_u64(), Some(5_000));
    }

    #[test]
    fn from_value_rejects_malformed_documents() {
        assert!(ProfSnapshot::from_value(&Value::parse("{}").unwrap()).is_err());
        let bad = Value::parse("{\"phases\":[{\"calls\":1}]}").unwrap();
        assert!(ProfSnapshot::from_value(&bad).is_err());
    }
}
