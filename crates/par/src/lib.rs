//! Deterministic fork-join parallelism on std alone — no rayon, no
//! crossbeam, matching the workspace's zero-external-dependency rule.
//!
//! The one primitive is [`parallel_map`]: apply a function to every
//! element of a slice and get the results back **in index order**,
//! regardless of which worker computed what. Work is handed out through
//! a single atomic cursor (each worker claims the next unclaimed index),
//! results flow back over an `mpsc` channel tagged with their index, and
//! the caller scatters them into a pre-sized buffer. Because the output
//! only depends on `f(i, &items[i])` per index, a caller whose `f` is a
//! pure function gets byte-identical results at any thread count — that
//! is the determinism contract the sweep/oracle layers build on (see
//! `docs/PERFORMANCE.md`).
//!
//! Thread-count resolution is layered: an explicit `threads` argument
//! wins, then a process-wide override installed by [`set_threads`]
//! (bound to `--threads` by the CLI layer), then the `EBDA_THREADS`
//! environment variable, then [`std::thread::available_parallelism`].
//! `threads <= 1` (or a single-element slice) takes a strictly serial
//! in-place path: no threads are spawned, no channel exists, and
//! execution is exactly today's sequential loop.
//!
//! When the self-profiler (`ebda_obs::prof`) is enabled every job is one
//! call of the `par/map` phase with its items as `tasks` work units, and
//! each pool worker adds its busy and idle wall time to the `par/busy`
//! and `par/idle` phases (wall time only, so the counter tree stays the
//! same at every thread count); `/metrics` renders these as the
//! `ebda_par_*` counters. Each worker also records one busy segment per
//! task — batched locally and pushed once at worker exit — which the
//! profile export renders as one Perfetto track per worker (gaps between
//! slices are the idle time). The serial path records its tasks as
//! worker 0, so a `--threads 1` profile still shows the timeline. When
//! the metrics registry is enabled the pool also sets an
//! `ebda_par_queue_depth` gauge.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide thread-count override (0 clears it, returning
/// resolution to `EBDA_THREADS` / hardware). The CLI layer calls this
/// from `--threads N`; libraries should accept an explicit count instead
/// so tests never race on this global.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Number of hardware threads the runtime reports (at least 1).
pub fn available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves the effective thread count: [`set_threads`] override, then
/// `EBDA_THREADS`, then [`available`]. Always at least 1.
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Some(n) = std::env::var("EBDA_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    available()
}

/// Maps `f` over `items` with up to `threads` workers, returning results
/// in index order. `threads == 0` resolves via [`threads()`].
///
/// `f` is called exactly once per index (never for indexes past the
/// slice), and a panic in any call propagates to the caller after the
/// remaining workers drain, exactly like a panic in a serial loop.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = if threads == 0 {
        self::threads()
    } else {
        threads
    };
    let metrics_on = ebda_obs::metrics::enabled();
    let prof_on = ebda_obs::prof::enabled();
    let _job = ebda_obs::prof::phase("par/map");
    ebda_obs::prof::work("par/map", "tasks", items.len() as u64);
    if threads <= 1 || items.len() <= 1 {
        // Serial path: the sequential loop. No pool, no channel, no
        // reordering — `--threads 1` means this code. Profiled, each task
        // is a busy segment of "worker 0" so serial profiles show a
        // timeline.
        let mut segments = Vec::new();
        let out = items
            .iter()
            .enumerate()
            .map(|(i, t)| timed(0, i, prof_on.then_some(&mut segments), || f(i, t)))
            .collect();
        ebda_obs::prof::push_worker_segments(segments);
        return out;
    }

    let workers = threads.min(items.len());
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || {
                let spawned = Instant::now();
                let mut segments = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    if metrics_on {
                        let depth = items.len().saturating_sub(i + 1);
                        ebda_obs::metrics::gauge_set("ebda_par_queue_depth", &[], depth as f64);
                    }
                    let r = timed(w, i, prof_on.then_some(&mut segments), || f(i, &items[i]));
                    // The receiver outlives the scope; send only fails if
                    // the parent panicked, and then we are unwinding anyway.
                    let _ = tx.send((i, r));
                }
                if prof_on {
                    let busy_ns: u64 = segments.iter().map(|s| s.dur_ns).sum();
                    let alive_ns = spawned.elapsed().as_nanos() as u64;
                    ebda_obs::prof::record("par/busy", 0, busy_ns);
                    ebda_obs::prof::record("par/idle", 0, alive_ns.saturating_sub(busy_ns));
                    ebda_obs::prof::push_worker_segments(segments);
                }
            });
        }
        drop(tx);
        // Scatter results as they arrive; index tags restore order.
        for (i, r) in rx.iter() {
            out[i] = Some(r);
        }
    });
    if metrics_on {
        ebda_obs::metrics::gauge_set("ebda_par_queue_depth", &[], 0.0);
    }
    out.into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}

/// Runs task `i` of `worker`; with `segments` (the profiler is on),
/// records the task's busy segment there.
fn timed<R>(
    worker: usize,
    i: usize,
    segments: Option<&mut Vec<ebda_obs::prof::WorkerSegment>>,
    task: impl FnOnce() -> R,
) -> R {
    let Some(segments) = segments else {
        return task();
    };
    let start_ns = ebda_obs::prof::now_ns();
    let t0 = Instant::now();
    let r = task();
    segments.push(ebda_obs::prof::WorkerSegment {
        worker,
        label: format!("task {i}"),
        start_ns,
        dur_ns: t0.elapsed().as_nanos() as u64,
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Held by every test that runs a pool: the metrics and profiler
    /// switches and the counters behind them are process-global, so a
    /// sibling's `parallel_map` would otherwise land in the window where
    /// `pool_metrics_are_emitted` has them enabled. (The root fix is a
    /// registry owned by the run, ROADMAP item 2.)
    fn pool_guard() -> MutexGuard<'static, ()> {
        static POOL: Mutex<()> = Mutex::new(());
        // `worker_panic_propagates` unwinds while holding the guard; the
        // unit value it protects cannot be left half-updated.
        POOL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn results_come_back_in_index_order() {
        let _pool = pool_guard();
        let items: Vec<u64> = (0..97).collect();
        let got = parallel_map(8, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let _pool = pool_guard();
        let items: Vec<u32> = (0..40).rev().collect();
        let f = |_: usize, &x: &u32| x.wrapping_mul(2654435761).rotate_left(7);
        let serial = parallel_map(1, &items, f);
        for threads in [2, 3, 8, 64] {
            assert_eq!(parallel_map(threads, &items, f), serial);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _pool = pool_guard();
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[9u8], |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn each_index_runs_exactly_once() {
        let _pool = pool_guard();
        let counts: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..50).collect();
        parallel_map(6, &items, |i, _| counts[i].fetch_add(1, Ordering::Relaxed));
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let _pool = pool_guard();
        let items = [1u8, 2, 3];
        assert_eq!(parallel_map(32, &items, |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn override_beats_env_and_hardware() {
        // Not parallel-test safe in general, but this is the only test in
        // the crate that touches the global, and it restores it.
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates() {
        let _pool = pool_guard();
        let items: Vec<u32> = (0..16).collect();
        parallel_map(4, &items, |_, &x| {
            if x == 7 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn profiler_records_worker_segments_on_both_paths() {
        let _pool = pool_guard();
        // Existence assertions only: the profiler's snapshot is
        // cumulative over the process.
        ebda_obs::prof::set_enabled(true);
        let items: Vec<u32> = (0..9).collect();
        let serial = parallel_map(1, &items, |_, &x| x + 1);
        let parallel = parallel_map(4, &items, |_, &x| x + 1);
        ebda_obs::prof::set_enabled(false);
        assert_eq!(serial, parallel);
        let snap = ebda_obs::prof::snapshot();
        let on_worker_0 = snap.workers.iter().filter(|s| s.worker == 0).count();
        assert!(on_worker_0 >= 9, "serial path must record as worker 0");
        assert!(
            snap.workers.iter().any(|s| s.label == "task 8"),
            "every task index gets a labelled segment"
        );
        assert!(snap.workers.len() >= 18, "both jobs record all tasks");
    }

    #[test]
    fn pool_metrics_are_emitted() {
        let _pool = pool_guard();
        ebda_obs::prof::set_enabled(true);
        let tasks = || {
            let text = ebda_obs::metrics::render_global();
            let samples = ebda_obs::metrics::parse_exposition(&text).expect("exposition parses");
            let total = samples.iter().find(|s| s.name == "ebda_par_tasks_total");
            total.map_or(0, |s| s.value as u64)
        };
        let before = tasks();
        let items: Vec<u32> = (0..12).collect();
        parallel_map(4, &items, |_, &x| x);
        let after = tasks();
        ebda_obs::prof::set_enabled(false);
        assert_eq!(after - before, 12);
    }
}
