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
//! toward unseen values of. A caught disagreement's simulator replay
//! adds the `sim_event` family (`replay_coverage`).
//!
//! Everything here is a pure function of the artifact and its verdicts,
//! so workers can extract coverage in parallel and the coordinator can
//! merge the per-artifact maps in stream order — the byte-determinism
//! contract the campaigns guarantee.

use crate::artifact::Artifact;
use crate::verdict::Verdicts;
use ebda_cdg::{Cdg, ConcreteChannel};
use ebda_core::{extract_turns, Direction, Extraction, Turn};
use ebda_obs::{CoverageMap, EventKind, Recorder};
use noc_sim::SimResult;
use std::fmt::{self, Write};

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
/// * `cdg_edge` — class-level `FROM>TO` labels of the edges of the CDG
///   the Dally path checks, a class being a link's (dimension, VC,
///   direction)
/// * `turn_admitted` / `turn_denied` — each off-diagonal class pair,
///   split by whether the routing relation allows the turn
/// * `obligation` — theorem obligations the EbDa extraction discharges
///   (partitioning artifacts with a valid design only)
/// * `escape_drain` — escape classes Duato's report proves drainable
/// * `gfp_pair` — class-level hold/want pairs the brute search realized
/// * `design_bin` — the artifact's design-space bin, once
///
/// Builds the artifact's CDG and extracts its design's turns for the
/// first and third families; a caller holding the
/// [`crate::verdict::Evaluation`] asks it instead
/// ([`crate::verdict::Evaluation::coverage`]) and does neither.
pub fn artifact_coverage(artifact: &Artifact, verdicts: &Verdicts) -> CoverageMap {
    let extraction = artifact.design.as_ref().and_then(|s| extract_turns(s).ok());
    extract(artifact, verdicts, &artifact.cdg(), extraction.as_ref())
}

/// [`artifact_coverage`] reading the `cdg_edge` family off `cdg`, the
/// artifact's already-built [`Artifact::cdg`], and the `obligation`
/// family off `extraction`, its design's turn extraction.
pub(crate) fn extract(
    artifact: &Artifact,
    verdicts: &Verdicts,
    cdg: &Cdg,
    extraction: Option<&Extraction>,
) -> CoverageMap {
    let mut map = CoverageMap::new("");
    emit(artifact, verdicts, cdg, extraction, &mut |family, point| {
        map.record(family, point);
    });
    map
}

/// The coverage contribution of one recorded replay, under the
/// `sim_event` family: per-kind event totals plus the run's outcome
/// (`outcome/completed` or `outcome/deadlocked`), so the campaign map
/// also records which simulator behaviours a witness exercised.
pub(crate) fn replay_coverage(result: &SimResult, recorder: &Recorder) -> CoverageMap {
    let mut map = CoverageMap::new("");
    for kind in EventKind::ALL {
        map.record_n("sim_event", kind.name(), recorder.total(kind));
    }
    let outcome = if result.outcome.is_deadlock_free() {
        "outcome/completed"
    } else {
        "outcome/deadlocked"
    };
    map.record("sim_event", outcome);
    map
}

/// Hands [`extract`]'s points to `record`, one hit each. Every family
/// is emitted in the byte order of its points, so each point lands at
/// the end of its table or adds to the last one there: the map is
/// built by appending, never by search and insert. (A class the
/// universe lists twice is the exception: its rows of the pair walk
/// repeat, and a repeated row is inserted.)
fn emit(
    artifact: &Artifact,
    verdicts: &Verdicts,
    cdg: &Cdg,
    extraction: Option<&Extraction>,
    record: &mut impl FnMut(&'static str, &str),
) {
    let mut point = String::with_capacity(64);
    emit_class_edges(cdg, &artifact.vcs, &mut point, record);

    let universe = &artifact.universe;
    let n = universe.len();
    let labels = Labels::new(
        universe
            .iter()
            .map(|c| move |out: &mut String| c.write_to(out)),
    );
    // Bit `i * n + j` of `allowed`: the relation allows the turn from
    // class `i` onto class `j`; of `realized`: the brute search realized
    // a wait of a class-`i` channel on a class-`j` one.
    let bit = |bits: &[u64], i: usize, j: usize| bits[(i * n + j) / 64] >> ((i * n + j) % 64) & 1;
    let set =
        |bits: &mut [u64], i: usize, j: usize| bits[(i * n + j) / 64] |= 1 << ((i * n + j) % 64);
    let mut bits = vec![0; 2 * (n * n).div_ceil(64)];
    let (allowed, realized) = bits.split_at_mut((n * n).div_ceil(64));
    let (mut admitted, mut possible) = (0, 0);
    for_each_turn_pair(artifact, |i, j, turn_allowed| {
        possible += 1;
        if turn_allowed {
            admitted += 1;
            set(allowed, i, j);
        }
    });
    for &(i, j) in &verdicts.brute.pair_classes {
        set(realized, usize::from(i), usize::from(j));
    }
    // One walk writes each point once for the turn families and
    // `gfp_pair`, which also holds a class's waits on itself.
    for &i in labels.by_head() {
        let head = labels.head(&mut point, i);
        for &j in labels.by_tail() {
            let (turn, waits) = (universe[i] != universe[j], bit(realized, i, j) == 1);
            if !turn && !waits {
                continue;
            }
            labels.tail(&mut point, head, j);
            if turn && bit(allowed, i, j) == 1 {
                record("turn_admitted", &point);
            } else if turn {
                record("turn_denied", &point);
            }
            if waits {
                record("gfp_pair", &point);
            }
        }
    }

    for key in extraction
        .map(Extraction::obligation_keys)
        .unwrap_or_default()
    {
        record("obligation", &key);
    }

    for class in verdicts.duato.drained_classes(universe) {
        record("escape_drain", &class);
    }

    // The density the bin needs was counted by the pair walk above.
    let bin = bin(artifact, (admitted, possible), Some(verdicts));
    record("design_bin", &bin);
}

/// Labels rendered once into one buffer, in the two orders that put
/// `A>B` points in byte order.
///
/// No label contains `>`. So `A>` is never a proper prefix of `C>`,
/// and comparing `A>B` with `C>D` is decided by `A>` against `C>`
/// unless `A` equals `C`, in which case by `B` against `D`. Walking the
/// heads in the order of their labels with a `>` appended, and for each
/// head the tails in the order of their labels as they are, therefore
/// visits the points in byte order. The two orders differ only where a
/// label is a proper prefix of another that goes on with a byte below
/// `>`: `a` sorts before `a=b`, but `a=b>` before `a>`. A channel label
/// is only ever a prefix of one that goes on with `[`, which sorts after
/// `>`, but the walk does not rely on that.
struct Labels {
    text: String,
    /// Label `i` is `text[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    /// The labels in head order, then in tail order.
    order: Vec<usize>,
}

impl Labels {
    /// Renders each label with its writer, then orders them.
    fn new<W>(writers: impl ExactSizeIterator<Item = W>) -> Labels
    where
        W: Fn(&mut String) -> fmt::Result,
    {
        let n = writers.len();
        // Class and kind labels mostly run to three or four bytes, so
        // eight each seldom regrows the buffer.
        let mut text = String::with_capacity(8 * n);
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        for write in writers {
            write(&mut text).expect("writing to a String cannot fail");
            start.push(text.len());
        }
        let get = |i: usize| &text.as_bytes()[start[i]..start[i + 1]];
        // `label(a)>` against `label(b)>`: where one label ends within
        // the other, its `>` meets the other's next byte.
        let head = |&a: &usize, &b: &usize| {
            let (a, b) = (get(a), get(b));
            let n = a.len().min(b.len());
            let next = |s: &[u8]| s.get(n).copied().unwrap_or(b'>');
            a[..n].cmp(&b[..n]).then_with(|| next(a).cmp(&next(b)))
        };
        let mut order: Vec<usize> = (0..n).chain(0..n).collect();
        let (by_head, by_tail) = order.split_at_mut(n);
        by_head.sort_unstable_by(head);
        by_tail.sort_unstable_by_key(|&i| get(i));
        Labels { text, start, order }
    }

    fn get(&self, i: usize) -> &str {
        &self.text[self.start[i]..self.start[i + 1]]
    }

    fn by_head(&self) -> &[usize] {
        &self.order[..self.start.len() - 1]
    }

    fn by_tail(&self) -> &[usize] {
        &self.order[self.start.len() - 1..]
    }

    /// Writes the head `label(a)>` of a point into `point`; returns its
    /// length, for [`Labels::tail`].
    fn head(&self, point: &mut String, a: usize) -> usize {
        point.clear();
        point.push_str(self.get(a));
        point.push('>');
        point.len()
    }

    /// Completes the point in `point`, whose head is `head` bytes long,
    /// with `label(b)`.
    fn tail(&self, point: &mut String, head: usize, b: usize) {
        point.truncate(head);
        point.push_str(self.get(b));
    }
}

/// Emits the `cdg_edge` family: which link kinds, a kind being a
/// channel's (dimension, direction, VC), depend on which. Every edge
/// of the graph marks one cell of a kind-by-kind matrix; the labels are
/// rendered once per kind and the marked cells read out in byte order.
fn emit_class_edges(
    cdg: &Cdg,
    vcs: &[u8],
    point: &mut String,
    record: &mut impl FnMut(&'static str, &str),
) {
    let channels = cdg.channels();
    // The graph was built with `vcs`, one VC count per dimension.
    let (dims, vcs) = (
        vcs.len(),
        usize::from(vcs.iter().copied().max().unwrap_or(0)) + 1,
    );
    // Raw kinds number every (dimension, direction, VC) up to the
    // largest; the kinds present are numbered densely in order of first
    // appearance.
    let mut dense = vec![u32::MAX; dims * 2 * vcs];
    let mut kinds: Vec<ConcreteChannel> = Vec::with_capacity(dense.len());
    let kind: Vec<u32> = channels
        .iter()
        .map(|c| {
            let raw = (c.dim.index() * 2 + usize::from(c.dir == Direction::Minus)) * vcs;
            let dense = &mut dense[raw + usize::from(c.vc)];
            if *dense == u32::MAX {
                *dense = kinds.len() as u32;
                kinds.push(*c);
            }
            *dense
        })
        .collect();
    let k = kinds.len();
    // Row `a` of `seen`, `words` words long, has bit `b` set when a
    // channel of kind `a` depends on one of kind `b`.
    let words = k.div_ceil(64);
    let mut seen = vec![0u64; k * words];
    for (a, &kind_a) in kind.iter().enumerate() {
        let row = &mut seen[kind_a as usize * words..][..words];
        for &b in cdg.successors(a) {
            let kind_b = kind[b as usize] as usize;
            row[kind_b / 64] |= 1 << (kind_b % 64);
        }
    }
    let labels = Labels::new(
        kinds
            .iter()
            .map(|c| move |out: &mut String| write!(out, "{}{}{}", c.dim, c.vc, c.dir)),
    );
    for &a in labels.by_head() {
        let head = labels.head(point, a);
        for &b in labels.by_tail() {
            if seen[a * words + b / 64] >> (b % 64) & 1 == 1 {
                labels.tail(point, head, b);
                record("cdg_edge", point);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Generator;
    use crate::verdict::{evaluate, Mutation};
    use ebda_core::{Channel, Dimension};
    use std::collections::BTreeMap;

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

    /// The points [`emit`] hands out for `artifact`, by family, in the
    /// order it hands them out.
    fn emitted(artifact: &Artifact) -> BTreeMap<&'static str, Vec<String>> {
        let evaluation = crate::verdict::Evaluation::of(artifact, Mutation::None);
        let extraction = artifact.design.as_ref().and_then(|s| extract_turns(s).ok());
        let mut out: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
        let (verdicts, cdg) = (&evaluation.verdicts, &artifact.cdg());
        emit(
            artifact,
            verdicts,
            cdg,
            extraction.as_ref(),
            &mut |family, point| {
                out.entry(family).or_default().push(point.to_string());
            },
        );
        out
    }

    #[test]
    fn every_family_is_emitted_in_byte_order() {
        let (x, y) = (Dimension::X, Dimension::Y);
        let mut artifacts = Vec::new();
        for (seed, max_nodes) in [(7, 36), (11, 64)] {
            let mut g = Generator::with_max_nodes(seed, max_nodes);
            artifacts.extend((0..60).map(|_| g.next_artifact()));
        }
        // `X1+` is a proper prefix of the two restricted classes.
        let mut a = artifacts[0].clone();
        a.radix = vec![4, 5];
        a.wrap = vec![false, false];
        a.vcs = vec![1, 2];
        a.design = None;
        a.universe = vec![
            Channel::new(x, Direction::Plus).at_coord(y, 3),
            Channel::new(x, Direction::Plus),
            Channel::new(x, Direction::Plus).not_at_coord(y, 3),
            Channel::new(x, Direction::Minus),
            Channel::new(y, Direction::Plus),
            Channel::with_vc(y, Direction::Plus, 2),
        ];
        a.turns = a
            .universe
            .iter()
            .flat_map(|&from| a.universe.iter().map(move |&to| (from, to)))
            .filter(|(from, to)| from != to && from.dim != to.dim)
            .map(|(from, to)| Turn::new(from, to))
            .collect();
        artifacts.push(a);
        let mut points = 0;
        for a in &artifacts {
            for (family, emitted) in emitted(a) {
                points += emitted.len();
                assert!(
                    emitted.windows(2).all(|w| w[0] <= w[1]),
                    "{family} of {}: {emitted:?}",
                    a.summary()
                );
            }
        }
        assert!(points > 10_000, "{points} points");
    }

    #[test]
    fn cdg_edge_points_are_sorted_deduplicated_class_labels() {
        let seq = ebda_core::PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
        let a = Artifact {
            id: 0,
            kind: crate::artifact::ArtifactKind::Partitioning,
            radix: vec![3, 3],
            wrap: vec![false, false],
            vcs: vec![1, 1],
            universe: seq.channels(),
            turns: extract_turns(&seq).unwrap().into_turn_set(),
            design: Some(seq),
        };
        let edges = emitted(&a).remove("cdg_edge").unwrap_or_default();
        assert!(!edges.is_empty());
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "labels sorted and deduplicated: {edges:?}"
        );
        // Straight-through along X+ exists on any 3x3 mesh route set
        // that allows X+ at all.
        assert!(edges.contains(&"X1+>X1+".to_string()), "{edges:?}");
        // Class labels carry no node coordinates.
        assert!(edges.iter().all(|e| !e.contains('(')), "{edges:?}");
    }

    #[test]
    fn head_order_then_tail_order_is_the_byte_order_of_the_points() {
        // Distinct labels over the bytes channel labels use, many of
        // them a proper prefix of another.
        const BYTES: &[u8] = b"XY1+-e[=!]:D";
        let mut rng = ebda_obs::Rng64::new(23);
        for round in 0..300 {
            let mut labels: Vec<String> = Vec::new();
            for _ in 0..1 + rng.gen_index(12) {
                let mut label = match labels.len() {
                    0 => String::new(),
                    n => labels[rng.gen_index(n)].clone(),
                };
                label.truncate(rng.gen_index(label.len() + 1));
                for _ in 0..rng.gen_index(4) {
                    label.push(BYTES[rng.gen_index(BYTES.len())] as char);
                }
                if !labels.contains(&label) {
                    labels.push(label);
                }
            }
            let ordered = Labels::new(labels.iter().map(|l| |out: &mut String| out.write_str(l)));
            let mut points = Vec::new();
            let mut point = String::new();
            for &a in ordered.by_head() {
                let head = ordered.head(&mut point, a);
                for &b in ordered.by_tail() {
                    ordered.tail(&mut point, head, b);
                    assert_eq!(point, format!("{}>{}", labels[a], labels[b]));
                    points.push(point.clone());
                }
            }
            let mut sorted = points.clone();
            sorted.sort();
            assert_eq!(points, sorted, "round {round}: {labels:?}");
            assert_eq!(points.len(), labels.len() * labels.len());
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
