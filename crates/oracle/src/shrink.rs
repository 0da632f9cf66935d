//! Greedy counterexample minimization: make a disagreeing artifact as
//! small as possible while the disagreement persists.
//!
//! The shrinker proposes structural reductions in decreasing order of
//! impact — unwrap a torus dimension, shave a radix, drop a VC level, drop
//! a channel class (with its incident turns), drop a single turn — and
//! greedily keeps any reduction under which the caller's predicate still
//! holds, restarting from the smaller artifact until a full pass makes no
//! progress (ddmin-style to a 1-minimal artifact). The predicate is
//! re-evaluated from scratch each time, so the result is always a genuine,
//! self-contained counterexample.

use crate::artifact::Artifact;
use ebda_core::{Channel, Partition, PartitionSeq, TurnSet};

/// How many predicate evaluations a shrink run may spend before settling
/// for the best artifact found so far.
pub const DEFAULT_SHRINK_BUDGET: usize = 400;

/// Shrinks `artifact` while `still_failing` holds, spending at most
/// `budget` predicate evaluations. Returns the smallest artifact reached —
/// `artifact` itself if nothing smaller kept the property.
///
/// Each pass evaluates candidates in order and restarts from the first
/// one that still fails; a hit at index `j` costs `j + 1` of the budget,
/// a pass without a hit ends the run.
pub fn shrink<F>(artifact: &Artifact, still_failing: F, budget: usize) -> Artifact
where
    F: Fn(&Artifact) -> bool,
{
    let mut current = artifact.clone();
    let mut evals = 0usize;
    while evals < budget {
        let mut cands = candidates(&current);
        let scan = cands.len().min(budget - evals);
        let hit = cands[..scan].iter().position(&still_failing);
        let spent = hit.map_or(scan, |j| j + 1);
        evals += spent;
        ebda_obs::prof::work("oracle/shrink", "shrink_evals", spent as u64);
        match hit {
            Some(j) => current = cands.swap_remove(j), // restart from the smaller artifact
            // Full pass without improvement (1-minimal) or budget
            // exhausted mid-pass: either way, this is the answer.
            None => break,
        }
    }
    current
}

/// Proposes one-step reductions of an artifact, biggest first.
fn candidates(a: &Artifact) -> Vec<Artifact> {
    let mut out = Vec::new();
    // 1. Unwrap a torus dimension.
    for d in 0..a.wrap.len() {
        if a.wrap[d] {
            let mut c = a.clone();
            c.wrap[d] = false;
            out.push(c);
        }
    }
    // 2. Shave one off a radix (wrapped dimensions stay >= 3, unwrapped >= 2).
    for d in 0..a.radix.len() {
        let floor = if a.wrap[d] { 3 } else { 2 };
        if a.radix[d] > floor {
            let mut c = a.clone();
            c.radix[d] -= 1;
            out.push(c);
        }
    }
    // 3. Drop the top VC level of a dimension.
    for d in 0..a.vcs.len() {
        if a.vcs[d] > 1 {
            let top = a.vcs[d];
            let dim = ebda_core::Dimension::new(d as u8);
            let mut c = keep_channels(a, |ch| ch.dim != dim || ch.vc < top);
            c.vcs[d] = top - 1;
            if !c.universe.is_empty() {
                out.push(c);
            }
        }
    }
    // 4. Drop one channel class (and every turn touching it).
    if a.universe.len() > 1 {
        for i in 0..a.universe.len() {
            let victim = a.universe[i];
            out.push(keep_channels(a, |ch| *ch != victim));
        }
    }
    // 5. Drop one turn.
    for t in a.turns.iter() {
        let mut c = a.clone();
        let mut turns = TurnSet::new();
        for keep in a.turns.iter().filter(|&k| k != t) {
            turns.insert(keep);
        }
        c.turns = turns;
        out.push(c);
    }
    out
}

/// Rebuilds an artifact keeping only the channels `keep` accepts: the
/// universe is filtered, turns with a dropped endpoint are removed, and
/// the design (if any) has the channels filtered out of its partitions —
/// empty partitions vanish, and a design reduced to nothing becomes
/// `None`.
fn keep_channels(a: &Artifact, keep: impl Fn(&Channel) -> bool) -> Artifact {
    let mut c = a.clone();
    c.universe.retain(|ch| keep(ch));
    let mut turns = TurnSet::new();
    for t in a.turns.iter() {
        if keep(&t.from) && keep(&t.to) {
            turns.insert(t);
        }
    }
    c.turns = turns;
    c.design = a.design.as_ref().and_then(|seq| {
        let partitions: Vec<Partition> = seq
            .partitions()
            .iter()
            .filter_map(|p| {
                let kept: Vec<Channel> = p.iter().filter(|ch| keep(ch)).copied().collect();
                if kept.is_empty() {
                    None
                } else {
                    Some(Partition::from_channels(kept).expect("subset of a valid partition"))
                }
            })
            .collect();
        if partitions.is_empty() {
            None
        } else {
            Some(PartitionSeq::from_partitions(partitions))
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactKind;
    use crate::brute;
    use ebda_core::parse_channels;

    /// A 4x4 torus with straight-through-only routing on one VC: the wrap
    /// rings deadlock. The minimal artifact keeping "brute finds a
    /// deadlock" is a single ring.
    fn torus_rings() -> Artifact {
        Artifact {
            id: 0,
            kind: ArtifactKind::ChannelOrdering,
            radix: vec![4, 4],
            wrap: vec![true, true],
            vcs: vec![1, 1],
            universe: parse_channels("X+ X- Y+ Y-").unwrap(),
            turns: TurnSet::new(),
            design: None,
        }
    }

    fn brute_deadlocks(a: &Artifact) -> bool {
        !brute::search(&a.topology(), &a.vcs, &a.universe, &a.turns).is_deadlock_free()
    }

    #[test]
    fn shrinks_torus_rings_to_one_minimal_ring() {
        let start = torus_rings();
        assert!(brute_deadlocks(&start));
        let small = shrink(&start, brute_deadlocks, DEFAULT_SHRINK_BUDGET);
        assert!(brute_deadlocks(&small), "shrunk artifact must still fail");
        // One wrapped dimension at the radix floor, a single channel
        // class, no turns.
        assert_eq!(small.universe.len(), 1);
        assert_eq!(small.turns.len(), 0);
        assert_eq!(small.wrap.iter().filter(|&&w| w).count(), 1);
        assert!(small.node_count() < start.node_count());
        let wrapped = small.wrap.iter().position(|&w| w).unwrap();
        assert_eq!(small.radix[wrapped], 3);
    }

    #[test]
    fn returns_input_when_nothing_smaller_fails() {
        let start = torus_rings();
        // Predicate nothing satisfies: shrinker must hand back the input.
        let same = shrink(&start, |_| false, DEFAULT_SHRINK_BUDGET);
        assert_eq!(same, start);
    }

    #[test]
    fn respects_the_evaluation_budget() {
        let start = torus_rings();
        // Budget 0: no candidate may even be evaluated.
        let same = shrink(&start, brute_deadlocks, 0);
        assert_eq!(same, start);
        // Budgets that expire mid-pass: the predicate runs exactly as
        // often as the budget is charged, never more.
        for budget in [1, 2, 3, 7, 25] {
            let evals = std::cell::Cell::new(0);
            let counting = |a: &Artifact| {
                evals.set(evals.get() + 1);
                brute_deadlocks(a)
            };
            let small = shrink(&start, counting, budget);
            assert!(evals.get() <= budget, "budget {budget}: {}", evals.get());
            assert!(brute_deadlocks(&small));
        }
    }

    #[test]
    fn keep_channels_filters_design_and_turns() {
        let seq = PartitionSeq::parse("X- | X+ Y+ Y-").unwrap();
        let universe = seq.channels();
        let turns = ebda_core::extract_turns(&seq).unwrap().into_turn_set();
        let a = Artifact {
            id: 0,
            kind: ArtifactKind::Partitioning,
            radix: vec![3, 3],
            wrap: vec![false, false],
            vcs: vec![1, 1],
            universe,
            turns,
            design: Some(seq),
        };
        let y_minus = "Y-".parse::<Channel>().unwrap();
        let c = keep_channels(&a, |ch| *ch != y_minus);
        assert!(!c.universe.contains(&y_minus));
        assert!(c.turns.iter().all(|t| t.from != y_minus && t.to != y_minus));
        let design = c.design.unwrap();
        assert!(design.channels().iter().all(|&ch| ch != y_minus));
        assert_eq!(design.len(), 2); // no partition emptied out
    }
}
