//! The profiler's worker timeline is bounded. `--metrics-addr` switches
//! the profiler on for its counters, and every pool task pushes a busy
//! segment, so a long campaign would otherwise grow without bound: the
//! registry keeps the first 262 144 segments.

use ebda_obs::{prof, WorkerSegment};

#[test]
fn the_worker_timeline_keeps_the_first_segments_only() {
    prof::set_enabled(true);
    prof::reset();
    let segment = |start_ns: u64| WorkerSegment {
        worker: 0,
        label: String::new(),
        start_ns,
        dur_ns: 1,
    };
    for batch in 0..5u64 {
        prof::push_worker_segments((0..1 << 16).map(|i| segment(batch << 16 | i)).collect());
    }
    prof::set_enabled(false);
    let workers = prof::snapshot().workers;
    assert_eq!(workers.len(), 1 << 18);
    assert_eq!(workers.last().map(|s| s.start_ns), Some((1 << 18) - 1));
}
