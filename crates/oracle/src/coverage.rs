//! Per-artifact **coverage extraction**: what one evaluated artifact
//! contributes to a campaign's [`ebda_obs::CoverageMap`].
//!
//! Each verdict path already computes the raw material — the CDG's
//! edges, the extraction's theorem justifications, Duato's drained
//! escape classes, the brute searcher's realized class pairs. This
//! module translates those into the canonical coverage families (see
//! [`ebda_obs::coverage`]) plus the design-space bin of the artifact
//! itself: a coarse label over (dims, max radix, wrap, max VCs,
//! turn-set density, verdict) that coverage-guided generation steers
//! toward unseen values of.
//!
//! Everything here is a pure function of the artifact and its verdicts,
//! so workers can extract coverage in parallel and the coordinator can
//! merge the per-artifact maps in stream order — the byte-determinism
//! contract the campaigns guarantee.

use crate::artifact::Artifact;
use crate::verdict::Verdicts;
use ebda_cdg::Cdg;
use ebda_core::{extract_turns, Turn};
use ebda_obs::CoverageMap;

/// Buckets a turn-set density (allowed off-diagonal class pairs over
/// all off-diagonal class pairs) into the coarse labels used in
/// design-space bins: `z` (no turns), `lo` (< 0.25), `mid` (< 0.6),
/// `hi` (≥ 0.6).
pub(crate) fn density_bucket(allowed: usize, possible: usize) -> &'static str {
    if allowed == 0 || possible == 0 {
        return "z";
    }
    let d = allowed as f64 / possible as f64;
    if d < 0.25 {
        "lo"
    } else if d < 0.6 {
        "mid"
    } else {
        "hi"
    }
}

/// Calls `visit(i, j, allowed)` for every ordered pair of distinct
/// classes `universe[i]`, `universe[j]`: whether the relation allows
/// the turn from the first onto the second.
///
/// The turn set iterates sorted by `(from, to)`, so walking the classes
/// in sorted order beside it answers all n² questions in one pass over
/// the turns instead of one set lookup per pair. Pairs are therefore
/// visited in sorted, not universe, order.
fn for_each_turn_pair(artifact: &Artifact, mut visit: impl FnMut(usize, usize, bool)) {
    let universe = &artifact.universe;
    let mut order: Vec<usize> = (0..universe.len()).collect();
    order.sort_unstable_by_key(|&i| universe[i]);
    let turns: Vec<Turn> = artifact.turns.iter().collect();
    let mut run = 0;
    for &i in &order {
        let from = universe[i];
        // The turns leaving `from`; a repeated class finds them again.
        run += turns[run..].iter().take_while(|t| t.from < from).count();
        let leaving = turns[run..].iter().take_while(|t| t.from == from);
        let mut leaving = leaving.peekable();
        for &j in &order {
            let to = universe[j];
            if from == to {
                continue;
            }
            while leaving.next_if(|t| t.to < to).is_some() {}
            visit(i, j, leaving.peek().is_some_and(|t| t.to == to));
        }
    }
}

/// `(allowed, possible)` turns between distinct classes.
fn turn_density(artifact: &Artifact) -> (usize, usize) {
    let (mut allowed, mut possible) = (0, 0);
    for_each_turn_pair(artifact, |_, _, turn_allowed| {
        possible += 1;
        allowed += usize::from(turn_allowed);
    });
    (allowed, possible)
}

/// The verdict-free **shape bin** of an artifact:
/// `d{dims}.r{max radix}.w{0|1}.v{max vcs}.t{density}`. This is what
/// coverage-guided generation can see *before* running the verdict
/// paths, so it steers on shape alone.
pub fn shape_bin(artifact: &Artifact) -> String {
    bin(artifact, turn_density(artifact), None)
}

/// The full **design-space bin**: the shape bin suffixed with the
/// ground-truth verdict (`free` or `deadlock`, from the brute path).
pub fn design_bin(artifact: &Artifact, verdicts: &Verdicts) -> String {
    bin(artifact, turn_density(artifact), Some(verdicts))
}

/// The bin label for an artifact whose turn density is already counted.
fn bin(
    artifact: &Artifact,
    (allowed, possible): (usize, usize),
    verdicts: Option<&Verdicts>,
) -> String {
    let mut label = format!(
        "d{}.r{}.w{}.v{}.t{}",
        artifact.radix.len(),
        artifact.radix.iter().copied().max().unwrap_or(0),
        u8::from(artifact.wraps()),
        artifact.vcs.iter().copied().max().unwrap_or(0),
        density_bucket(allowed, possible)
    );
    match verdicts.map(|v| v.brute.is_deadlock_free()) {
        Some(true) => label.push_str(".free"),
        Some(false) => label.push_str(".deadlock"),
        None => {}
    }
    label
}

/// Extracts the coverage contribution of one evaluated artifact as an
/// unkeyed [`CoverageMap`] (campaigns merge these in stream order and
/// key the merged map themselves):
///
/// * `cdg_edge` — class-level edge labels of the CDG the Dally path
///   checks, via [`Cdg::class_edges`]
/// * `turn_admitted` / `turn_denied` — each off-diagonal class pair,
///   split by whether the routing relation allows the turn
/// * `obligation` — theorem obligations the EbDa extraction discharges
///   (partitioning artifacts with a valid design only)
/// * `escape_drain` — escape classes Duato's report proves drainable
/// * `gfp_pair` — class-level hold/want pairs the brute search realized
/// * `design_bin` — the artifact's design-space bin, once
///
/// Builds the artifact's CDG for the first family; a caller holding the
/// [`crate::verdict::Evaluation`] asks it instead
/// ([`crate::verdict::Evaluation::coverage`]) and builds nothing.
pub fn artifact_coverage(artifact: &Artifact, verdicts: &Verdicts) -> CoverageMap {
    extract(artifact, verdicts, &artifact.cdg())
}

/// [`artifact_coverage`] reading the `cdg_edge` family off `cdg`, the
/// artifact's already-built [`Artifact::cdg`].
pub(crate) fn extract(artifact: &Artifact, verdicts: &Verdicts, cdg: &Cdg) -> CoverageMap {
    let mut map = CoverageMap::new("");

    for edge in cdg.class_edges() {
        map.record("cdg_edge", edge);
    }

    // Each class is rendered once; the `from>to` points of the n² turn
    // pairs and of the brute pairs are assembled from those labels in
    // one reused buffer.
    let labels: Vec<String> = artifact.universe.iter().map(ToString::to_string).collect();
    let mut point = String::new();
    let mut pair = |map: &mut CoverageMap, family: &str, from: usize, to: usize| {
        point.clear();
        point.push_str(&labels[from]);
        point.push('>');
        point.push_str(&labels[to]);
        map.record(family, &point);
    };
    let (mut allowed, mut possible) = (0, 0);
    for_each_turn_pair(artifact, |i, j, turn_allowed| {
        possible += 1;
        allowed += usize::from(turn_allowed);
        let family = if turn_allowed {
            "turn_admitted"
        } else {
            "turn_denied"
        };
        pair(&mut map, family, i, j);
    });

    if let Some(extraction) = artifact
        .design
        .as_ref()
        .and_then(|seq| extract_turns(seq).ok())
    {
        for key in extraction.obligation_keys() {
            map.record("obligation", key);
        }
    }

    for class in verdicts.duato.drained_classes(&artifact.universe) {
        map.record("escape_drain", class);
    }

    for &(ca, cb) in &verdicts.brute.pair_classes {
        pair(&mut map, "gfp_pair", ca as usize, cb as usize);
    }

    // The density the bin needs was counted by the pair walk above.
    map.record(
        "design_bin",
        bin(artifact, (allowed, possible), Some(verdicts)),
    );
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Generator;
    use crate::verdict::{evaluate, Mutation};

    #[test]
    fn every_family_is_fed_by_a_small_generated_stream() {
        let mut g = Generator::with_max_nodes(7, 16);
        let mut map = CoverageMap::new("test");
        for _ in 0..24 {
            let a = g.next_artifact();
            let v = evaluate(&a, Mutation::None);
            map.merge(&artifact_coverage(&a, &v));
        }
        for family in [
            "cdg_edge",
            "turn_admitted",
            "turn_denied",
            "obligation",
            "escape_drain",
            "gfp_pair",
            "design_bin",
        ] {
            assert!(
                map.covered(family) > 0,
                "family {family} never fed:\n{}",
                map.report()
            );
        }
    }

    #[test]
    fn extraction_is_deterministic_per_artifact() {
        let mut g1 = Generator::with_max_nodes(11, 16);
        let mut g2 = Generator::with_max_nodes(11, 16);
        for _ in 0..8 {
            let (a1, a2) = (g1.next_artifact(), g2.next_artifact());
            let c1 = artifact_coverage(&a1, &evaluate(&a1, Mutation::None));
            let c2 = artifact_coverage(&a2, &evaluate(&a2, Mutation::None));
            assert_eq!(c1.to_json(), c2.to_json());
        }
    }

    #[test]
    fn the_pair_walk_answers_what_the_turn_set_would() {
        let mut g = Generator::with_max_nodes(5, 16);
        for round in 0..40 {
            let mut a = g.next_artifact();
            if round % 4 == 0 && !a.universe.is_empty() {
                // A class listed twice is two rows and two columns.
                a.universe.push(a.universe[0]);
            }
            let mut seen = Vec::new();
            for_each_turn_pair(&a, |i, j, allowed| {
                assert_eq!(allowed, a.turns.allows(a.universe[i], a.universe[j]));
                seen.push((i, j));
            });
            seen.sort_unstable();
            let n = a.universe.len();
            let want: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .filter(|&(i, j)| a.universe[i] != a.universe[j])
                .collect();
            assert_eq!(seen, want, "every off-diagonal pair exactly once");
        }
    }

    #[test]
    fn bins_compose_shape_and_verdict() {
        let mut g = Generator::with_max_nodes(3, 12);
        let a = g.next_artifact();
        let v = evaluate(&a, Mutation::None);
        let bin = design_bin(&a, &v);
        assert!(bin.starts_with(&shape_bin(&a)), "{bin}");
        assert!(
            bin.ends_with(".free") || bin.ends_with(".deadlock"),
            "{bin}"
        );
        assert_eq!(density_bucket(0, 10), "z");
        assert_eq!(density_bucket(1, 10), "lo");
        assert_eq!(density_bucket(5, 10), "mid");
        assert_eq!(density_bucket(9, 10), "hi");
    }
}
