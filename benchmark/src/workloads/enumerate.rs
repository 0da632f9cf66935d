//! `enumerate`: the paper's `4^c` argument (Section 2) — the cdg crate
//! used the other way round, on thousands of tiny graphs one turn apart.
//!
//! `turn_model::deadlock_free_combinations(3, 4)` checks all 4096
//! one-prohibited-turn-per-cycle models of a 3D mesh (176 are free),
//! `deadlock_free_combinations_2d(6)` the 16 of Glass and Ni (12 free),
//! and `sample_deadlock_free_2d_vc(2, 5, 1000, seed)` a seeded thousand
//! of the 65 536 two-VC models. No I/O, no simulation, one thread: this
//! is the workload an incremental or Gray-code enumeration (ROADMAP
//! item 4) must move, almost one for one with the per-model CDG build.
//!
//! Operation: one model checked (5112 per repetition). The exhaustive
//! counts are known at every seed; the orbit counts under mesh symmetry
//! (3 and 9) are checked in the warm-up only.

use crate::harness::{best_of, Checks, Digest, Outcome, Workload};
use crate::trace::{Metrics, Trace, Tracer};
use ebda_cdg::turn_model::{
    abstract_cycles, combination_count, combinations_2d, deadlock_free_combinations,
    deadlock_free_combinations_2d, sample_deadlock_free_2d_vc, unique_turn_sets_up_to_symmetry,
    unique_up_to_symmetry, Combination,
};
use ebda_cdg::{IncrementalVerifier, Topology};
use ebda_core::{Turn, TurnSet};
use ebda_obs::{prof, Rng64};
use std::hint::black_box;

const SAMPLES: u64 = 1000;

/// The model spaces the body enumerates: what its counts are counts of.
pub struct Spaces {
    /// `4^6` single-VC 3D models.
    models_3d: u64,
    /// The 16 single-VC 2D models, with their allowed turns.
    models_2d: Vec<Combination>,
    /// `4^8` two-VC 2D models, of which `SAMPLES` are drawn.
    models_2d_vc: u64,
}

pub struct Enumerate {
    seed: u64,
}

impl Enumerate {
    pub fn new(seed: u64) -> Enumerate {
        Enumerate { seed }
    }
}

/// The allowed turn sets of the free 3D models, from their prohibition
/// index vectors.
fn turn_sets_3d(free: &[Vec<usize>]) -> Vec<TurnSet> {
    let cycles = abstract_cycles(3);
    let mut all: Vec<Turn> = cycles.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    free.iter()
        .map(|idx| {
            let prohibited: Vec<Turn> = cycles.iter().zip(idx).map(|(c, &k)| c[k]).collect();
            all.iter()
                .copied()
                .filter(|t| !prohibited.contains(t))
                .collect()
        })
        .collect()
}

impl Workload for Enumerate {
    type Inputs = Spaces;

    fn name(&self) -> &'static str {
        "enumerate"
    }

    /// The enumerations take no input but their parameters, so set-up
    /// is only the description of the spaces.
    fn construct(&self, _: &mut Tracer) -> Spaces {
        let count = |vcs: &[u8]| combination_count(vcs).expect("fits") as u64;
        Spaces {
            models_3d: count(&[1, 1, 1]),
            models_2d: combinations_2d(),
            models_2d_vc: count(&[2, 2]),
        }
    }

    fn body(&self, spaces: &Spaces, checks: &mut Checks) -> Outcome {
        self.traced_body(spaces, &mut Tracer::off(), checks)
    }

    /// The three public entry points are the layer calls; there is
    /// nothing finer to take apart from outside the crate.
    fn traced_body(&self, spaces: &Spaces, t: &mut Tracer, checks: &mut Checks) -> Outcome {
        let free3 = t.call("cdg.enum_3d", || deadlock_free_combinations(3, 4));
        t.work(spaces.models_3d);
        let free2 = t.call("cdg.enum_2d", || deadlock_free_combinations_2d(6));
        t.work(spaces.models_2d.len() as u64);
        let (checked, free_vc) = t.call("cdg.enum_2d_vc", || {
            sample_deadlock_free_2d_vc(2, 5, SAMPLES, self.seed)
        });
        t.work(checked);
        checks.op(free3.len() == 176, || {
            format!("{} of 4096 3D models free, known 176", free3.len())
        });
        checks.op(
            free2.len() == 12 && free2.iter().all(|c| spaces.models_2d.contains(c)),
            || format!("{} of 16 2D models free, known 12", free2.len()),
        );
        checks.op(
            checked == SAMPLES.min(spaces.models_2d_vc) && free_vc <= checked,
            || format!("sampled {checked} two-VC models, {free_vc} free"),
        );
        let mut d = Digest::new();
        for idx in &free3 {
            for &k in idx {
                d.u64(k as u64);
            }
        }
        for c in &free2 {
            d.u64((c.cw * 4 + c.ccw) as u64);
        }
        d.u64(checked);
        d.u64(free_vc);
        Outcome {
            digest: d.finish(),
            ops: spaces.models_3d + spaces.models_2d.len() as u64 + checked,
        }
    }

    fn warmup_checks(&self, _: &Spaces, checks: &mut Checks) {
        let orbits2 = unique_up_to_symmetry(&deadlock_free_combinations_2d(6));
        checks.op(orbits2 == 3, || format!("{orbits2} 2D orbits, known 3"));
        let sets = turn_sets_3d(&deadlock_free_combinations(3, 4));
        let orbits3 = unique_turn_sets_up_to_symmetry(3, &sets);
        checks.op(orbits3 == 9, || format!("{orbits3} 3D orbits, known 9"));
    }

    fn pinned_digest(&self) -> u64 {
        0x1c65_8a05_ef9d_66bd
    }

    fn derive(&self, trace: &Trace, m: &mut Metrics) {
        let spans = || {
            trace
                .spans
                .iter()
                .filter(|s| s.name.starts_with("cdg.enum_"))
        };
        let models: u64 = spans().map(|s| s.work).sum();
        let ns: u64 = spans().map(|s| s.dur_ns()).sum();
        m.set("cdg.enum_models", models as f64);
        m.set("cdg.enum_ns_per_model", ns as f64 / models as f64);
    }

    fn probes(&self, m: &mut Metrics) {
        const REPS: usize = 10;
        let sets = turn_sets_3d(&deadlock_free_combinations(3, 4));
        m.set(
            "cdg.symmetry_ns",
            best_of(REPS, || {
                black_box(unique_turn_sets_up_to_symmetry(3, &sets));
            }),
        );

        // What the enumeration would pay per model if it walked the
        // space by one-turn deltas on an `IncrementalVerifier`: 1000
        // seeded removals and re-additions on the all-turns 3D base.
        let cycles = abstract_cycles(3);
        let mut turns: Vec<Turn> = cycles.iter().flatten().copied().collect();
        turns.sort_unstable();
        turns.dedup();
        let universe = ebda_core::parse_channels("X+ X- Y+ Y- Z+ Z-").expect("parses");
        // West-first-like acyclic base: every model's first prohibition.
        let base: TurnSet = turns
            .iter()
            .copied()
            .filter(|t| !cycles.iter().any(|c| c[0] == *t))
            .collect();
        let verifier = IncrementalVerifier::new(
            Topology::mesh(&[4, 4, 4]),
            vec![1, 1, 1],
            universe,
            base.clone(),
        );
        let mut rng = Rng64::new(self.seed);
        let deltas: Vec<Turn> = (0..1000)
            .map(|_| turns[rng.gen_index(turns.len())])
            .collect();
        let ns = best_of(REPS, || {
            for &t in &deltas {
                black_box(if base.contains(t) {
                    verifier.query_remove_turn(t)
                } else {
                    verifier.query_add_turn(t)
                });
            }
        });
        m.set("cdg.incr_query_ns", ns / deltas.len() as f64);
        prof::reset();
        prof::set_enabled(true);
        let ns = best_of(REPS, || {
            let mut v = verifier.clone();
            for &t in &deltas {
                black_box(if v.turns().contains(t) {
                    v.apply_remove_turn(t)
                } else {
                    v.apply_add_turn(t)
                });
            }
        });
        prof::set_enabled(false);
        let fallbacks = prof::snapshot()
            .phases
            .get("incr")
            .and_then(|p| p.work.get("fallbacks").copied())
            .unwrap_or(0);
        prof::reset();
        m.set("cdg.incr_apply_ns", ns / deltas.len() as f64);
        m.set("cdg.incr_fallbacks", fallbacks as f64 / REPS as f64);
    }
}
