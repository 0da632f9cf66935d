//! Brute-force turn-model verification — the methodology EbDa replaces.
//!
//! Section 2 of the paper argues that Dally-style verification via turn
//! models explodes combinatorially: prohibiting one turn from each abstract
//! cycle gives `4^c` combinations to check, where `c` is the number of
//! abstract cycles (2 per plane per VC pairing). This module implements that
//! brute-force checker so the scalability comparison can be *measured*:
//! enumerate combinations and decide each model's CDG on a concrete
//! mesh. Every model gets a cycle of its own graph or a full search of
//! it — the number of checks is the quantity Section 2 counts — but no
//! model gets a graph: the models of one space share a
//! [`Skeleton`], a model is the allow rows of its prohibitions, and its
//! verdict is read off the skeleton (`Enumeration`): a cycle an earlier
//! model left in the [`Relation`]'s witness store, or one search. The
//! turn set and CDG per model that this replaced are the reference in
//! `tests/kernel_differential.rs`.
//!
//! Every space's abstract cycles come from one generator over the
//! per-dimension VC budgets. Its order is an invariant, because a model
//! is a digit per cycle and seeded samples and index vectors name cycles
//! by position: dimension pairs `a < b` in lexicographic order, then VC
//! pairs `(va, vb)` with `vb` varying fastest, and for each the clockwise
//! cycle `a+ → b− → a− → b+` before the counterclockwise `a+ → b+ → a− →
//! b−`. Orbits are counted under one group, the mesh's: every
//! permutation of the dimensions with every mask of flipped directions,
//! VC labels kept (`n!·2^n` elements, 8 for the square).
//!
//! For the 2D no-VC case it reproduces the classic Glass & Ni result the
//! paper cites: of the 16 combinations, 12 are deadlock-free and 3 are
//! unique up to symmetry (west-first, north-last, negative-first).

use crate::graph::{Relation, Skeleton};
use crate::topology::Topology;
use ebda_core::sets::permutations;
use ebda_core::{Channel, Dimension, Direction, Turn, TurnSet};
use ebda_obs::Rng64;

/// The abstract cycles of a network whose dimension `d` has `vcs[d]`
/// virtual channels, in the module's cycle order.
fn cycles(vcs: &[u8]) -> impl Iterator<Item = [Turn; 4]> + '_ {
    let n = vcs.len();
    let planes = (0..n).flat_map(move |a| (a + 1..n).map(move |b| (a, b)));
    let pairs = planes.flat_map(move |(a, b)| {
        (1..=vcs[a]).flat_map(move |va| (1..=vcs[b]).map(move |vb| ((a, va), (b, vb))))
    });
    pairs.flat_map(|(a, b)| cycle_pair(a, b))
}

/// The clockwise cycle `a+ → b− → a− → b+` and the counterclockwise
/// cycle `a+ → b+ → a− → b−` of dimension `a` on one VC and dimension `b`
/// on another, each given as `(dimension, vc)`. The single-VC plane's
/// pair, `cycle_pair((0, 1), (1, 1))`, is the generator's first two
/// cycles, built without running it: it is most of the set-up of the
/// benchmark's `enumerate`.
fn cycle_pair((a, va): (usize, u8), (b, vb): (usize, u8)) -> [[Turn; 4]; 2] {
    let ch = |d: usize, vc, dir| Channel::with_vc(Dimension::new(d as u8), dir, vc);
    let (ap, am) = (ch(a, va, Direction::Plus), ch(a, va, Direction::Minus));
    let (bp, bm) = (ch(b, vb, Direction::Plus), ch(b, vb, Direction::Minus));
    let cycle = |x: Channel, y: Channel| {
        [
            Turn::new(ap, x),
            Turn::new(x, am),
            Turn::new(am, y),
            Turn::new(y, ap),
        ]
    };
    [cycle(bm, bp), cycle(bp, bm)]
}

/// One prohibition combination: remove turn `cw` from the clockwise cycle
/// and `ccw` from the counterclockwise cycle, keep the other six turns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Combination {
    /// Index (0–3) of the prohibited clockwise turn.
    pub cw: usize,
    /// Index (0–3) of the prohibited counterclockwise turn.
    pub ccw: usize,
    /// The six allowed 90° turns.
    pub allowed: TurnSet,
}

/// Enumerates all `4 × 4 = 16` one-per-cycle prohibition combinations of the
/// 2D turn model.
pub fn combinations_2d() -> Vec<Combination> {
    let [cw, ccw] = cycle_pair((0, 1), (1, 1));
    let mut out = Vec::with_capacity(16);
    // A clone and a removal, not six inserts into a fresh set: this is
    // the whole set-up of the benchmark's `enumerate`.
    let all: TurnSet = cw.iter().chain(&ccw).copied().collect();
    for (i, &no_cw) in cw.iter().enumerate() {
        let mut row = all.clone();
        row.remove(no_cw);
        for (j, &no_ccw) in ccw.iter().enumerate() {
            let mut allowed = row.clone();
            allowed.remove(no_ccw);
            out.push(Combination {
                cw: i,
                ccw: j,
                allowed,
            });
        }
    }
    out
}

/// The plain class universe of `dims` dimensions with `q` virtual
/// channels each, VC-major.
fn plain_universe(dims: usize, q: u8) -> Vec<Channel> {
    let mut universe = Vec::new();
    for vc in 1..=q {
        for d in 0..dims {
            for dir in [Direction::Plus, Direction::Minus] {
                universe.push(Channel::with_vc(Dimension::new(d as u8), dir, vc));
            }
        }
    }
    universe
}

/// One walk over a model space: the skeleton of the mesh all its models
/// share, the relation allowing every turn of every cycle, and where in
/// the relation each cycle turn sits. A model is that relation minus one
/// turn per cycle; [`Skeleton::is_acyclic`] decides it.
struct Enumeration {
    skeleton: Skeleton,
    relation: Relation,
    /// Per cycle, the universe index pair of each of its four turns.
    slots: Vec<[(usize, usize); 4]>,
    models: u64,
    _phase: ebda_obs::prof::PhaseGuard,
}

impl Enumeration {
    fn new(dims: usize, radix: usize, q: u8, cycles: &[[Turn; 4]]) -> Enumeration {
        let _phase = ebda_obs::prof::phase("cdg/enumerate");
        let universe = plain_universe(dims, q);
        let topo = Topology::mesh(&vec![radix; dims]);
        let skeleton = Skeleton::new(&topo, &vec![q; dims], &universe);
        let at = |c: Channel| universe.iter().position(|&u| u == c).expect("plain");
        let slots = cycles.iter().map(|c| c.map(|t| (at(t.from), at(t.to))));
        Enumeration {
            relation: skeleton.relation(&cycles.iter().flatten().copied().collect()),
            skeleton,
            slots: slots.collect(),
            models: 0,
            _phase,
        }
    }

    /// Whether the model prohibiting turn `digit(c)` of each cycle `c`
    /// is deadlock-free on the mesh.
    fn is_free(&mut self, digit: impl Fn(usize) -> usize) -> bool {
        self.models += 1;
        self.set_prohibited(&digit, false);
        let free = self.skeleton.is_acyclic(&mut self.relation);
        self.set_prohibited(&digit, true);
        free
    }

    fn set_prohibited(&mut self, digit: &impl Fn(usize) -> usize, allowed: bool) {
        for (c, turns) in self.slots.iter().enumerate() {
            let (from, to) = turns[digit(c)];
            self.relation.set(from, to, allowed);
        }
    }
}

impl Drop for Enumeration {
    fn drop(&mut self) {
        let searches = self.relation.searches();
        ebda_obs::prof::work("cdg/enumerate", "models", self.models);
        ebda_obs::prof::work("cdg/enumerate", "searches", searches);
        ebda_obs::prof::work("cdg/enumerate", "witness_hits", self.models - searches);
    }
}

/// Checks every 2D combination on a `radix × radix` mesh and returns the
/// deadlock-free ones. With `radix >= 4` this reproduces the Glass & Ni
/// count of 12 the paper quotes.
pub fn deadlock_free_combinations_2d(radix: usize) -> Vec<Combination> {
    let mut models = Enumeration::new(2, radix, 1, &cycle_pair((0, 1), (1, 1)));
    combinations_2d()
        .into_iter()
        .filter(|c| models.is_free(|cycle| [c.cw, c.ccw][cycle]))
        .collect()
}

/// Counts the orbits of a set of turn combinations under the symmetry group
/// of the 2D mesh (the dihedral group acting on the four directions) — the
/// paper's "3 unique if symmetry is taken into account".
pub fn unique_up_to_symmetry(combos: &[Combination]) -> usize {
    let sets: Vec<TurnSet> = combos.iter().map(|c| c.allowed.clone()).collect();
    unique_turn_sets_up_to_symmetry(2, &sets)
}

/// Counts the orbits of a set of turn sets under the hyperoctahedral
/// symmetry group of the `n`-dimensional mesh (all dimension permutations
/// combined with per-dimension flips: `n! · 2^n` elements — 48 for 3D).
///
/// [`unique_up_to_symmetry`] is this group at `n = 2`; feed it the allowed
/// turn sets of [`deadlock_free_combinations`]'s survivors to learn how
/// many structurally distinct turn models an enumeration found.
pub fn unique_turn_sets_up_to_symmetry(n: usize, sets: &[TurnSet]) -> usize {
    assert!(n <= 5, "group size n!*2^n explodes beyond 5 dimensions");
    let perms = permutations(n);
    // Dimension `d` goes to `perm[d]`, its direction flipped if bit `d`
    // of the mask is set.
    let apply = |perm: &[usize], mask: u32, c: Channel| {
        let d = c.dim.index();
        let dir = if mask >> d & 1 == 1 {
            c.dir.opposite()
        } else {
            c.dir
        };
        Channel::with_vc(Dimension::new(perm[d] as u8), dir, c.vc)
    };
    // An orbit is named by the least of its images, each image a sorted
    // list of turns (all of one set's images are equally long, so an
    // empty `least` is one not yet set, or the empty set's).
    let mut canonical = std::collections::BTreeSet::new();
    let (mut image, mut least) = (Vec::new(), Vec::new());
    for ts in sets {
        least.clear();
        for perm in &perms {
            for mask in 0..(1u32 << n) {
                image.clear();
                let map = |t: Turn| Turn::new(apply(perm, mask, t.from), apply(perm, mask, t.to));
                image.extend(ts.iter().map(map));
                image.sort_unstable();
                if least.is_empty() || image < least {
                    std::mem::swap(&mut image, &mut least);
                }
            }
        }
        canonical.insert(least.clone());
    }
    canonical.len()
}

/// The abstract cycles of an `n`-dimensional single-VC network: for every
/// dimension pair, one clockwise and one counterclockwise cycle of four
/// turns. Returns `2·C(n,2)` cycles.
pub fn abstract_cycles(n: usize) -> Vec<[Turn; 4]> {
    // A budget of one VC per dimension, borrowed rather than allocated
    // (a `Dimension` index is a byte).
    cycles(&[1; 256][..n]).collect()
}

/// The turns a model allows: every turn of `cycles` except turn
/// `digits[c]` of cycle `c` — a prohibition index vector, as
/// [`deadlock_free_combinations`] returns it.
///
/// ```
/// use ebda_cdg::turn_model::{abstract_cycles, allowed_turns, combinations_2d};
/// let cycles = abstract_cycles(2);
/// let derived: Vec<_> = (0..16).map(|i| allowed_turns(&cycles, &[i / 4, i % 4])).collect();
/// let listed: Vec<_> = combinations_2d().into_iter().map(|c| c.allowed).collect();
/// assert_eq!(derived, listed);
/// ```
pub fn allowed_turns(cycles: &[[Turn; 4]], digits: &[usize]) -> TurnSet {
    let mut allowed: TurnSet = cycles.iter().flatten().copied().collect();
    for (cycle, &k) in cycles.iter().zip(digits) {
        allowed.remove(cycle[k]);
    }
    allowed
}

/// Exhaustive brute-force turn-model verification in `n` dimensions with a
/// single VC: for every way of prohibiting one turn per abstract cycle
/// (`4^(2·C(n,2))` combinations), decide the CDG on a `radix^n` mesh.
/// Returns the prohibition index vectors of the deadlock-free
/// combinations, in index order (cycle 0 is the least significant
/// base-4 digit).
///
/// This is the computation whose growth Section 2 of the paper uses to
/// motivate EbDa: 16 checks in 2D, 4 096 in 3D, astronomically more with
/// VCs.
///
/// # Panics
///
/// Panics if the combination space exceeds `4^8` (n > 2 dimensions pairs
/// beyond 3D get prohibitively slow by design — that is the point).
pub fn deadlock_free_combinations(n: usize, radix: usize) -> Vec<Vec<usize>> {
    let cycles = abstract_cycles(n);
    assert!(
        cycles.len() <= 8,
        "combination space too large to enumerate"
    );
    let mut models = Enumeration::new(n, radix, 1, &cycles);
    let mut free = Vec::new();
    for combo in 0..4usize.pow(cycles.len() as u32) {
        let digit = |c: usize| combo >> (2 * c) & 3;
        if models.is_free(digit) {
            free.push((0..cycles.len()).map(digit).collect());
        }
    }
    free
}

/// The abstract cycles of a 2D network with `q` virtual channels per
/// dimension: one clockwise and one counterclockwise cycle per `(X-VC,
/// Y-VC)` pairing — `2q²` cycles of four turns each (8 cycles for the
/// paper's "65,536 (4^8)" configuration).
pub fn abstract_cycles_2d_vc(q: u8) -> Vec<[Turn; 4]> {
    cycles(&[q, q]).collect()
}

/// The digit vectors of a walk over a model space, 32 base-4 digits to
/// a word: drawn from the SplitMix64 stream of [`Rng64`], one word per
/// 32 cycles, or counted up when the walk is exhaustive.
struct Digits {
    rng: Rng64,
    words: Vec<u64>,
}

impl Digits {
    fn new(seed: u64, cycles: usize) -> Digits {
        Digits {
            rng: Rng64::new(seed),
            words: vec![0; cycles.div_ceil(32).max(1)],
        }
    }

    fn draw(&mut self) {
        for word in &mut self.words {
            *word = self.rng.next_u64();
        }
    }

    fn digit(&self, cycle: usize) -> usize {
        (self.words[cycle / 32] >> (2 * (cycle % 32)) & 3) as usize
    }
}

/// Samples the 2D-with-VCs turn-model space: draws `samples`
/// one-prohibition-per-cycle combinations (deterministically from `seed`)
/// and CDG-checks each on a `radix x radix` mesh. Returns
/// `(checked, deadlock_free)`.
///
/// The full space has `4^(2q²)` combinations — 65 536 for `q = 2`, the
/// number Section 2 quotes. With `samples >= total` the sweep is
/// exhaustive, in index order; a space too large for
/// [`combination_count`] is only ever sampled.
pub fn sample_deadlock_free_2d_vc(q: u8, radix: usize, samples: u64, seed: u64) -> (u64, u64) {
    let cycles = abstract_cycles_2d_vc(q);
    let mut models = Enumeration::new(2, radix, q, &cycles);
    let exhaustive = combination_count(&[q, q])
        .and_then(|total| u64::try_from(total).ok())
        .filter(|&total| samples >= total);
    let mut digits = Digits::new(seed, cycles.len());
    let count = exhaustive.unwrap_or(samples);
    let mut free = 0u64;
    for i in 0..count {
        if exhaustive.is_some() {
            digits.words[0] = i;
        } else {
            digits.draw();
        }
        free += u64::from(models.is_free(|c| digits.digit(c)));
    }
    (count, free)
}

/// Number of abstract cycles to break in an `n`-dimensional network where
/// dimension `d` has `vcs[d]` virtual channels: two cycle orientations per
/// plane per VC pairing, `c = 2 · Σ_{i<j} vcs[i]·vcs[j]`.
///
/// ```
/// use ebda_cdg::turn_model::abstract_cycle_count;
/// assert_eq!(abstract_cycle_count(&[1, 1]), 2);     // 2D
/// assert_eq!(abstract_cycle_count(&[2, 2]), 8);     // 2D + 1 VC per dim
/// assert_eq!(abstract_cycle_count(&[1, 1, 1]), 6);  // 3D
/// assert_eq!(abstract_cycle_count(&[2, 2, 2]), 24); // 3D + 1 VC per dim
/// ```
pub fn abstract_cycle_count(vcs: &[u8]) -> u64 {
    let mut pairs = 0u64;
    for i in 0..vcs.len() {
        for j in (i + 1)..vcs.len() {
            pairs += vcs[i] as u64 * vcs[j] as u64;
        }
    }
    2 * pairs
}

/// Number of one-prohibition-per-cycle combinations a brute-force turn-model
/// verification must examine: `4^c` with `c = abstract_cycle_count(vcs)`.
///
/// The paper quotes 16 for 2D (`4^2`), 65 536 for 2D with one added VC per
/// dimension (`4^8`), and "more than 8 billion" for 3D with one added VC
/// per dimension (`4^24 ≈ 2.8·10^14`). Returns `None` when the count
/// overflows `u128`.
pub fn combination_count(vcs: &[u8]) -> Option<u128> {
    let c = abstract_cycle_count(vcs);
    if c >= 64 {
        return None;
    }
    Some(1u128 << (2 * c)) // 4^c = 2^(2c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cdg;

    #[test]
    fn sixteen_combinations() {
        let all = combinations_2d();
        assert_eq!(all.len(), 16);
        for c in &all {
            assert_eq!(c.allowed.len(), 6);
        }
    }

    #[test]
    fn glass_ni_counts_reproduced() {
        // The paper (citing Glass & Ni): of 16 combinations, 12 are
        // deadlock-free and 3 unique up to symmetry.
        let free = deadlock_free_combinations_2d(6);
        assert_eq!(free.len(), 12, "expected the classic count of 12");
        assert_eq!(unique_up_to_symmetry(&free), 3);
    }

    #[test]
    fn known_good_and_bad_combinations() {
        let free = deadlock_free_combinations_2d(6);
        let has = |cw: usize, ccw: usize| free.iter().any(|c| c.cw == cw && c.ccw == ccw);
        // West-first prohibits the turns into west: SW (cw 1) and NW (ccw 1).
        assert!(has(1, 1));
        // North-last prohibits the turns out of north: NE (cw 3), NW (ccw 1).
        assert!(has(3, 1));
        // Negative-first prohibits the positive-to-negative turns:
        // ES (cw 0) and NW (ccw 1).
        assert!(has(0, 1));
    }

    #[test]
    fn larger_mesh_agrees_with_smaller() {
        // The deadlock-free set must be stable across mesh sizes >= 4.
        let a: Vec<(usize, usize)> = deadlock_free_combinations_2d(4)
            .iter()
            .map(|c| (c.cw, c.ccw))
            .collect();
        let b: Vec<(usize, usize)> = deadlock_free_combinations_2d(7)
            .iter()
            .map(|c| (c.cw, c.ccw))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn generic_enumeration_matches_2d_specialization() {
        let generic = deadlock_free_combinations(2, 5);
        assert_eq!(generic.len(), 12, "generic 2D must reproduce Glass & Ni");
        // The classic three: west-first (SW=1, NW=1), north-last (NE=3,
        // NW=1), negative-first (ES=0, NW=1) — in (cw, ccw) index form.
        for expect in [[1usize, 1], [3, 1], [0, 1]] {
            assert!(generic.iter().any(|v| v == &expect), "missing {expect:?}");
        }
    }

    #[test]
    fn nd_symmetry_matches_2d_specialization() {
        let free = deadlock_free_combinations_2d(5);
        let sets: Vec<TurnSet> = free.iter().map(|c| c.allowed.clone()).collect();
        assert_eq!(unique_turn_sets_up_to_symmetry(2, &sets), 3);
    }

    #[test]
    fn three_d_orbit_count() {
        // Of the 176 deadlock-free 3D prohibition combinations, count the
        // structurally distinct turn models under the 48-element cube
        // symmetry group. The number (9) is this repo's measurement —
        // the 3D analogue of Glass & Ni's "3 unique" result.
        let cycles = abstract_cycles(3);
        let sets: Vec<TurnSet> = deadlock_free_combinations(3, 3)
            .iter()
            .map(|idx| allowed_turns(&cycles, idx))
            .collect();
        assert_eq!(sets.len(), 176);
        let unique = unique_turn_sets_up_to_symmetry(3, &sets);
        assert!(unique > 3, "3D must have more classes than 2D");
        assert!(unique < 176, "symmetry must collapse the set");
        // Lock in the measured value so regressions are visible.
        assert_eq!(unique, 9, "measured orbit count changed");
    }

    #[test]
    fn three_d_enumeration_is_feasible_but_large() {
        // 4^6 = 4096 combinations — two orders of magnitude beyond 2D,
        // exactly the explosion Section 2 describes.
        let free = deadlock_free_combinations(3, 3);
        assert!(!free.is_empty());
        assert!(free.len() < 4096, "not every combination can be safe");
        // Negative-first-3D (prohibit the positive-to-negative turn of
        // every cw cycle and NW-analogue of every ccw cycle) must be free.
        assert!(
            free.iter().any(|v| v == &vec![0, 1, 0, 1, 0, 1]),
            "negative-first 3D missing from {} combos",
            free.len()
        );
        // And it must be consistent across mesh sizes.
        let free4 = deadlock_free_combinations(3, 4);
        assert_eq!(free.len(), free4.len());
    }

    #[test]
    fn vc_space_matches_paper_size_and_q1_reduces_to_glass_ni() {
        // q = 2: 8 cycles, 4^8 = 65,536 combinations — the paper's quote.
        assert_eq!(abstract_cycles_2d_vc(2).len(), 8);
        // q = 1 exhaustive sampling reduces to the 16-combination space.
        let (checked, free) = sample_deadlock_free_2d_vc(1, 5, u64::MAX, 1);
        assert_eq!(checked, 16);
        assert_eq!(free, 12);
    }

    #[test]
    fn vc_space_sampling_is_deterministic_and_sparse() {
        let a = sample_deadlock_free_2d_vc(2, 4, 128, 42);
        let b = sample_deadlock_free_2d_vc(2, 4, 128, 42);
        assert_eq!(a, b);
        assert_eq!(a.0, 128);
        // Random prohibition combinations are almost never jointly safe
        // with VCs — the deadlock-free fraction collapses from 12/16 at
        // q = 1 to (near) zero at q = 2, which is exactly why searching
        // this space by hand is hopeless (the paper's Section 2 argument).
        assert!(a.1 < 8, "expected a sparse safe set, found {}", a.1);
    }

    #[test]
    fn vc_space_contains_safe_combinations() {
        // The space is not empty: prohibiting the west-first pair (SW, NW)
        // in every (X-VC, Y-VC) plane is deadlock-free. cw cycles are at
        // even indices (prohibit SW = index 1), ccw at odd (prohibit NW =
        // index 1).
        let q = 2u8;
        let cycles = abstract_cycles_2d_vc(q);
        let allowed = allowed_turns(&cycles, &[1; 8]);
        let topo = Topology::mesh(&[5, 5]);
        let cdg = Cdg::from_turn_set(&topo, &[q, q], &plain_universe(2, q), &allowed);
        assert!(cdg.is_acyclic(), "all-plane west-first must be safe");
    }

    #[test]
    fn the_draw_reaches_every_cycle_of_a_wide_space() {
        // q = 5 has 50 cycles and q = 6 has 72: one word covers 32, so a
        // draw is two and three words, and no digit position is stuck.
        for (q, words) in [(5u8, 2), (6, 3)] {
            let cycles = abstract_cycles_2d_vc(q).len();
            let mut digits = Digits::new(42, cycles);
            assert_eq!(digits.words.len(), words);
            let mut seen = vec![[false; 4]; cycles];
            for _ in 0..64 {
                digits.draw();
                for (c, seen) in seen.iter_mut().enumerate() {
                    seen[digits.digit(c)] = true;
                }
            }
            assert!(seen.iter().all(|s| s == &[true; 4]), "q = {q}: {seen:?}");
            // A space past `u64` (at q = 6 past `u128`) is only sampled.
            assert_eq!(sample_deadlock_free_2d_vc(q, 3, 3, 42).0, 3);
        }
    }

    #[test]
    fn combination_counts_match_paper_formulas() {
        assert_eq!(combination_count(&[1, 1]), Some(16));
        assert_eq!(combination_count(&[2, 2]), Some(65_536));
        assert_eq!(combination_count(&[1, 1, 1]), Some(4_096));
        let three_d_vc = combination_count(&[2, 2, 2]).unwrap();
        assert!(three_d_vc > 8_000_000_000u128, "paper: more than 8 billion");
        assert_eq!(three_d_vc, 1u128 << 48);
        // Very large spaces overflow gracefully.
        assert_eq!(combination_count(&[16, 16, 16, 16]), None);
    }
}
