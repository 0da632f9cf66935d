//! The timing protocol and its statistics.
//!
//! One process measures one workload. After one untimed warm-up,
//! repetitions of `[t0 construct t1 body t2]` fill the run's time
//! budget, and every end-to-end time reported is the **fastest**
//! repetition: on a shared host identical work alternates between a
//! fast and a slow regime for seconds at a time (see README.md), so a
//! median follows the host while the minimum of a hundred repetitions
//! follows the code.

use crate::trace::{Metrics, Trace, Tracer};
use std::ffi::{c_int, c_long};
use std::time::Instant;

/// The seed whose outputs are pinned in the benchmark source.
pub const DEFAULT_SEED: u64 = 7;

/// Fewest repetitions a run reports, whatever its time budget.
pub const MIN_REPS: usize = 3;

/// Set-up is timed at least this often in a run, by itself once the
/// repetitions are over, for at most [`SETUP_BUDGET_S`] more.
pub const SETUP_SAMPLES: usize = 300;
pub const SETUP_BUDGET_S: f64 = 0.5;

/// A repetition slower than this multiple of the fastest one counts as
/// "slow" in [`Stats::slow_share`].
pub const SLOW_FACTOR: f64 = 1.25;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, ts: *mut Timespec) -> c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system CPU time of every
/// thread of this process.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `timespec` (two C longs
    // on every 64-bit Linux target, the only platform this benchmark
    // supports) that the call only writes to; the clock id is a
    // constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// FNV-1a over the outputs of one repetition; equal digests mean equal
/// answers.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What one repetition's body produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Digest of every answer the body computed.
    pub digest: u64,
    /// Operations attempted. Those whose answer differed from the known
    /// one are counted in the [`Checks`] the body was given.
    pub ops: u64,
}

/// Collects the failed checks of one repetition.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one failed operation unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.messages.push(what());
        }
    }
}

/// Order statistics of a sample of repetition times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub min: f64,
    pub median: f64,
    pub p90: f64,
    /// Share of repetitions slower than [`SLOW_FACTOR`] × the fastest.
    pub slow_share: f64,
}

/// The `p`-th percentile (`0.0..=1.0`) of an ascending sample, by
/// linear interpolation between closest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn stats(samples: &[f64]) -> Stats {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let min = sorted[0];
    let slow = sorted.iter().filter(|&&x| x > SLOW_FACTOR * min).count();
    Stats {
        min,
        median: percentile(&sorted, 0.5),
        p90: percentile(&sorted, 0.9),
        slow_share: slow as f64 / sorted.len() as f64,
    }
}

/// Fastest of `reps` runs of `f`, in nanoseconds: the protocol's
/// estimator, for the probes of a traced run.
pub fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One benchmark workload: how to build its inputs, run it, and what
/// its answers must be.
pub trait Workload {
    /// Everything the body reads. Dropped (untimed) after each
    /// repetition, which is where temporary files are removed.
    type Inputs;

    fn name(&self) -> &'static str;

    /// Builds the inputs *and finishes their lazy first-use
    /// initialisation*, so the body runs warm and work moved into
    /// construction shows in `setup_s`. Calls into a layer go through
    /// `t`, which records nothing in an end-to-end repetition.
    fn construct(&self, t: &mut Tracer) -> Self::Inputs;

    /// The measured work, through the program's public entry points.
    fn body(&self, inputs: &Self::Inputs, checks: &mut Checks) -> Outcome;

    /// The body's work again, taken apart into one call per layer with a
    /// span around each. Computes the same digest as [`Workload::body`].
    fn traced_body(&self, inputs: &Self::Inputs, t: &mut Tracer, checks: &mut Checks) -> Outcome;

    /// Per-layer metrics that are not the self time of one span name or
    /// a count: scaling points, ratios.
    fn derive(&self, _trace: &Trace, _m: &mut Metrics) {}

    /// Layer measurements taken outside the repetition, on fixed inputs.
    fn probes(&self, _m: &mut Metrics) {}

    /// Checks too slow or too noisy to repeat: run once on the warm-up's
    /// inputs.
    fn warmup_checks(&self, _inputs: &Self::Inputs, _checks: &mut Checks) {}

    /// The body's digest at [`DEFAULT_SEED`].
    fn pinned_digest(&self) -> u64;
}

/// The end-to-end result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The warm-up's digest, which every repetition reproduced unless
    /// `failed` says otherwise.
    pub digest: u64,
    pub reps: usize,
    /// Operations attempted / failed over the warm-up and all repetitions.
    pub attempted: u64,
    pub failed: u64,
    pub ops_per_rep: u64,
    pub setup: Stats,
    pub wall: Stats,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub messages: Vec<String>,
    /// Every repetition's `(setup_s, wall_s, cpu_s)`, in run order.
    pub raw: Vec<(f64, f64, f64)>,
}

impl RunReport {
    pub fn ops_per_s(&self) -> f64 {
        self.ops_per_rep as f64 / self.wall.min
    }
}

/// Runs the protocol: one warm-up, then repetitions until `seconds`
/// have passed since the call (at least `min_reps`).
pub fn measure<W: Workload>(w: &W, seed: u64, seconds: f64, min_reps: usize) -> RunReport {
    let started = Instant::now();
    let mut checks = Checks::default();

    let inputs = w.construct(&mut Tracer::off());
    let warm = w.body(&inputs, &mut checks);
    w.warmup_checks(&inputs, &mut checks);
    drop(inputs);
    if seed == DEFAULT_SEED && warm.digest != w.pinned_digest() {
        checks.failed += warm.ops;
        checks.messages.push(format!(
            "{}: digest {:#018x} at the default seed differs from the pinned {:#018x}",
            w.name(),
            warm.digest,
            w.pinned_digest()
        ));
    }

    let (mut setup, mut wall, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    // The warm-up is checked like any repetition, only not timed.
    let mut attempted = warm.ops;
    while setup.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let inputs = w.construct(&mut Tracer::off());
        let t1 = Instant::now();
        let c0 = cpu_seconds();
        let out = w.body(&inputs, &mut checks);
        let c1 = cpu_seconds();
        let t2 = Instant::now();
        drop(inputs);
        setup.push((t1 - t0).as_secs_f64());
        wall.push((t2 - t1).as_secs_f64());
        cpu.push(c1 - c0);
        attempted += out.ops;
        if out.digest != warm.digest {
            // A different digest leaves no operation of this repetition
            // trustworthy.
            checks.failed += out.ops;
            checks.messages.push(format!(
                "{}: repetition {} digest {:#018x} differs from the warm-up's {:#018x}",
                w.name(),
                setup.len(),
                out.digest,
                warm.digest
            ));
        }
    }
    // A minimum is only as steady as its sample is large, and the slow
    // workloads repeat too few times for a set-up of microseconds
    // (`enumerate`: 57 repetitions, 6 us, medians 10% apart between
    // runs). Set-up is cheap next to the body, so sample it further on
    // its own.
    let mut setup_samples = setup.clone();
    let extra = Instant::now();
    while setup_samples.len() < SETUP_SAMPLES && extra.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let t0 = Instant::now();
        let inputs = w.construct(&mut Tracer::off());
        setup_samples.push(t0.elapsed().as_secs_f64());
        drop(inputs);
    }
    RunReport {
        digest: warm.digest,
        reps: setup.len(),
        attempted,
        // A digest mismatch on top of per-operation failures can count an
        // operation twice.
        failed: checks.failed.min(attempted),
        ops_per_rep: warm.ops,
        setup: stats(&setup_samples),
        wall: stats(&wall),
        cpu_s: stats(&cpu).min,
        peak_rss_mb: peak_rss_mb(),
        messages: checks.messages,
        raw: (0..setup.len())
            .map(|i| (setup[i], wall[i], cpu[i]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert!((percentile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // Even sample: the median lies between the middle pair.
        assert_eq!(percentile(&[1.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn best_of_r_ignores_the_slow_regime() {
        // 70 fast repetitions and 30 from a regime 1.7x slower: the
        // minimum is the fast time, the slow share is exact.
        let mut xs = vec![0.045; 70];
        xs.extend(vec![0.078; 30]);
        xs[13] = 0.0449;
        let s = stats(&xs);
        assert_eq!(s.min, 0.0449);
        assert_eq!(s.median, 0.045);
        assert_eq!(s.p90, 0.078);
        assert!((s.slow_share - 0.30).abs() < 1e-12);
    }

    #[test]
    fn digest_separates_field_boundaries() {
        let mut a = Digest::new();
        a.str("ab");
        a.str("c");
        let mut b = Digest::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn clocks_advance() {
        let c0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(cpu_seconds() > c0);
        assert!(peak_rss_mb() > 0.1);
    }

    struct Flaky;
    impl Workload for Flaky {
        type Inputs = std::cell::Cell<u64>;
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn construct(&self, _: &mut Tracer) -> Self::Inputs {
            std::cell::Cell::new(0)
        }
        fn traced_body(&self, i: &Self::Inputs, _: &mut Tracer, c: &mut Checks) -> Outcome {
            self.body(i, c)
        }
        fn body(&self, _: &Self::Inputs, checks: &mut Checks) -> Outcome {
            checks.op(false, || "always wrong".into());
            Outcome { digest: 1, ops: 4 }
        }
        fn pinned_digest(&self) -> u64 {
            1
        }
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let r = measure(&Flaky, DEFAULT_SEED, 0.0, 5);
        assert_eq!(r.reps, 5);
        // Five repetitions and the warm-up, one failed operation each.
        assert_eq!(r.attempted, 24);
        assert_eq!(r.failed, 6);
        assert_eq!(r.messages.len(), 6);
    }
}
