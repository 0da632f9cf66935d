//! The disabled self-profiler must be free: a counting allocator proves
//! the `prof` fast path performs **zero** allocations, and that the
//! steady-state simulation loop allocates exactly the same with the
//! profiler compiled in (but off) run after run.
//!
//! The same allocator pins the cycle loop itself: a saturated run's
//! allocations are set-up plus buffers growing to their working size, a
//! fixed budget that simulating twice as long does not double.
//!
//! And an enabled `prof::work` charge to a unit its phase already has
//! allocates nothing either: every counter family of `/metrics` is such
//! a charge, some of them per sweep point or per artifact.
//!
//! The counter is thread-local, so neither the harness's own threads nor
//! a sibling test ever show up in a count. The profiler switch is
//! process-global, so the tests take turns ([`one_at_a_time`]).

use ebda_core::catalog;
use ebda_routing::classic::DimensionOrder;
use ebda_routing::{Topology, TurnRouting};
use noc_sim::{simulate, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counts this thread's allocations, delegating to the system allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates verbatim to `System`; the only addition is a
// const-initialized thread-local counter bump, which cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes the tests: one of them switches the profiler on.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// This thread's allocations during `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn disabled_profiler_adds_zero_allocations() {
    let _turn = one_at_a_time();
    assert!(
        !ebda_obs::prof::enabled(),
        "this test needs the profiler off"
    );

    // The disabled fast path: guards and work charges in a tight loop
    // must never touch the allocator (or the clock, but the allocator is
    // what we can observe deterministically).
    let n = allocs_during(|| {
        for i in 0..10_000u64 {
            let _g = ebda_obs::prof::phase("overhead/test");
            ebda_obs::prof::work("overhead/test", "units", i);
        }
    });
    assert_eq!(n, 0, "disabled prof::phase/work allocated {n} times");

    // Steady state: after a warmup run (lazy statics, interned names),
    // identical simulations allocate identically — so the profiler's
    // disabled branches in the cycle loop cost nothing that grows.
    let topo = Topology::mesh(&[4, 4]);
    let xy = DimensionOrder::xy();
    let cfg = SimConfig {
        injection_rate: 0.03,
        warmup: 100,
        measurement: 300,
        drain: 400,
        deadlock_threshold: 300,
        collect_latencies: false,
        ..SimConfig::default()
    };
    simulate(&topo, &xy, &cfg); // warmup: one-time lazy init
    let a = allocs_during(|| {
        simulate(&topo, &xy, &cfg);
    });
    let b = allocs_during(|| {
        simulate(&topo, &xy, &cfg);
    });
    assert_eq!(a, b, "steady-state runs must allocate identically");
    assert!(a > 0, "sanity: the counter is live");
}

/// The cycle loop allocates nothing per cycle, per flit or per route
/// query. Clock-free: only allocation counts are compared. The run is
/// the benchmark's `sim-saturation` shape (8x8 west-first past the
/// knee), which made 1.09 million allocations when every flit moved and
/// every route query built coordinate vectors.
#[test]
fn saturated_run_stays_within_a_fixed_allocation_budget() {
    let _turn = one_at_a_time();
    let topo = Topology::mesh(&[8, 8]);
    let relation = TurnRouting::from_design("west-first", &catalog::p3_west_first()).unwrap();
    let cfg = |measurement| SimConfig {
        injection_rate: 0.07,
        warmup: 500,
        measurement,
        drain: 500,
        collect_latencies: false,
        ..SimConfig::default()
    };
    // (allocations, flits ejected in the measurement window)
    let run = |measurement| {
        let mut flits = 0;
        let allocs = allocs_during(|| {
            let r = simulate(&topo, &relation, &cfg(measurement));
            assert!(r.outcome.is_deadlock_free(), "{r}");
            flits = r.window_ejected;
        });
        (allocs, flits)
    };
    let (short, short_flits) = run(1_500);
    let (long, flits) = run(3_000);
    assert!(
        flits > short_flits * 3 / 2,
        "the longer run must do more work: {short_flits} vs {flits} flits"
    );
    assert!(
        short_flits > 15_000,
        "not saturated: {short_flits} flits in the window"
    );
    assert!(short <= 5_000, "{short} allocations in the 1500-cycle run");
    assert!(
        long < short * 3 / 2,
        "allocations grow with simulated time: {short} for 1500 cycles, {long} for 3000"
    );
}

#[test]
fn enabled_work_on_a_known_unit_allocates_nothing() {
    let _turn = one_at_a_time();
    ebda_obs::prof::set_enabled(true);
    // The first charge names the phase and the unit; the rest find them.
    ebda_obs::prof::work("overhead/known", "units", 1);
    let n = allocs_during(|| {
        for i in 1..=10_000u64 {
            ebda_obs::prof::work("overhead/known", "units", i);
        }
    });
    ebda_obs::prof::set_enabled(false);
    assert_eq!(
        n, 0,
        "enabled prof::work on a known unit allocated {n} times"
    );
    let snap = ebda_obs::prof::snapshot();
    assert_eq!(
        snap.phases["overhead/known"].work["units"],
        1 + 10_000 * 10_001 / 2
    );
}
