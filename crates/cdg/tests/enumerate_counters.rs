//! Clock-free pins of the turn-model enumeration.
//!
//! Section 2 counts checks, so the enumeration says how it made each
//! one: every model is decided either by a witness stored from an
//! earlier model whose every kind pair still depends (`witness_hits`)
//! or by a search of the shared skeleton (`searches`), and none by
//! building a graph (`cdg/csr_build` stays uncalled). The counts are
//! deterministic; a change to the walk order, the search order or the
//! witness store (its size, its order, what it keeps) moves them.
//!
//! One test function: the profiler is process-global.

use ebda_cdg::turn_model::{
    deadlock_free_combinations, deadlock_free_combinations_2d, sample_deadlock_free_2d_vc,
};
use ebda_obs::prof;

/// Runs `f` with the profiler on; returns readers of the
/// `cdg/enumerate` work units and of a phase's call count (0 when never
/// charged).
fn profiled(f: impl FnOnce()) -> (impl Fn(&str) -> u64, impl Fn(&str) -> u64) {
    prof::reset();
    prof::set_enabled(true);
    f();
    prof::set_enabled(false);
    let phases = std::rc::Rc::new(prof::snapshot().phases);
    let of = phases.clone();
    let work = move |unit: &str| {
        let stat = of.get("cdg/enumerate");
        stat.and_then(|s| s.work.get(unit)).copied().unwrap_or(0)
    };
    let calls = move |phase: &str| phases.get(phase).map_or(0, |s| s.calls);
    (work, calls)
}

/// Measured, like every golden: searches among the 4 096 3D models and
/// among the 1 000 models sampled at seed 7 (3 854 and 978 witness
/// hits). Of those searches 176 and 1 are the free models; a cyclic
/// model searched for is one that no stored witness fitted.
const SEARCHES_3D: u64 = 242;
const SEARCHES_SAMPLED: u64 = 22;

#[test]
fn every_model_is_a_stored_witness_or_a_search_and_none_is_a_graph() {
    // The benchmark's 3D space: 4^6 models on a 4x4x4 mesh.
    let (work, calls) = profiled(|| assert_eq!(deadlock_free_combinations(3, 4).len(), 176));
    assert_eq!(work("models"), 4096);
    assert_eq!(work("searches"), SEARCHES_3D);
    assert_eq!(work("witness_hits"), 4096 - SEARCHES_3D);
    assert_eq!(calls("cdg/enumerate"), 1);
    assert_eq!(calls("cdg/csr_build"), 0);
    assert_eq!(calls("cdg/cycle"), 0);

    // The free models are never hits: no witness fits an acyclic relation.
    let (work, calls) = profiled(|| assert_eq!(deadlock_free_combinations_2d(6).len(), 12));
    assert_eq!(work("models"), 16);
    assert!(work("searches") >= 12, "{} searches", work("searches"));
    assert_eq!(calls("cdg/csr_build"), 0);

    // A sampled walk changes six digits in eight between models, and
    // still nearly every cyclic model has a cycle met before.
    let (work, calls) = profiled(|| {
        sample_deadlock_free_2d_vc(2, 5, 1000, 7);
    });
    assert_eq!(work("models"), 1000);
    assert_eq!(work("searches"), SEARCHES_SAMPLED);
    assert_eq!(work("witness_hits"), 1000 - SEARCHES_SAMPLED);
    assert_eq!(calls("cdg/csr_build"), 0);
}
