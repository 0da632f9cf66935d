//! Duato's verification criterion — the baseline theory EbDa is compared
//! against.
//!
//! Duato (1993): a fully adaptive routing is deadlock-free if there exists a
//! *connected*, *cycle-free* subset of channels (the escape channels);
//! packets may use the remaining (adaptive) channels with no restriction
//! because a blocked packet can always fall back to the escape subnetwork.
//!
//! This module checks the two structural conditions on a concrete topology:
//! the escape turn relation must have an acyclic CDG, and the escape
//! subnetwork alone must connect every source to every destination.

use crate::bitrow;
use crate::dally::verify_turn_set;
use crate::graph::ConcreteChannel;
use crate::topology::{NodeId, Topology};
use crate::walk::{ClassBuckets, Walk};
use ebda_core::{Channel, Dimension, Direction, TurnSet};
use std::fmt;

/// The outcome of checking Duato's conditions.
#[derive(Debug, Clone)]
pub struct DuatoReport {
    /// Whether the escape CDG is acyclic.
    pub escape_acyclic: bool,
    /// A witness cycle in the escape CDG, if any.
    pub escape_cycle: Option<Vec<ConcreteChannel>>,
    /// Whether the escape subnetwork connects every ordered node pair.
    pub escape_connected: bool,
    /// A witness unreachable pair, if any.
    pub unreachable: Option<(NodeId, NodeId)>,
}

impl DuatoReport {
    /// Returns `true` when both of Duato's conditions hold.
    pub fn is_deadlock_free(&self) -> bool {
        self.escape_acyclic && self.escape_connected
    }

    /// The escape channel classes this report proves drainable, as
    /// sorted display labels: when the escape CDG is acyclic, Duato's
    /// drain argument applies to *every* escape class; when it is
    /// cyclic nothing is proven drained and the list is empty. Fed to
    /// the `escape_drain` coverage family.
    pub fn drained_classes(&self, escape_universe: &[Channel]) -> Vec<String> {
        if !self.escape_acyclic {
            return Vec::new();
        }
        // Distinct classes have distinct labels: deduplicate first, so
        // each label is rendered once, then order the labels as text.
        let mut classes = escape_universe.to_vec();
        classes.sort_unstable();
        classes.dedup();
        let mut out: Vec<String> = classes.iter().map(ToString::to_string).collect();
        out.sort();
        out
    }
}

impl fmt::Display for DuatoReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_deadlock_free() {
            write!(
                f,
                "duato conditions hold: escape subnetwork acyclic and connected"
            )
        } else if !self.escape_acyclic {
            write!(f, "duato violation: escape subnetwork has a cyclic CDG")
        } else {
            let (a, b) = self.unreachable.unwrap_or((0, 0));
            write!(
                f,
                "duato violation: escape subnetwork cannot route {a} -> {b}"
            )
        }
    }
}

/// Checks Duato's conditions for an escape subnetwork described by a
/// class-level turn set over `escape_universe`.
///
/// Connectivity is checked with minimal-path reachability: every source
/// must reach every other node over escape classes while strictly
/// decreasing distance and respecting the escape turns (escape channels
/// in Duato-style designs are dimension-ordered and minimal) — one pass
/// per destination that reaches every node after its next hops, see
/// `check_connectivity`.
pub fn verify_escape(
    topo: &Topology,
    vcs: &[u8],
    escape_universe: &[Channel],
    escape_turns: &TurnSet,
) -> DuatoReport {
    let dally = verify_turn_set(topo, vcs, escape_universe, escape_turns);
    verify_escape_given(&dally, topo, escape_universe, escape_turns)
}

/// Checks Duato's conditions reusing an already-computed Dally report
/// for the *same* `(topology, vcs, universe, turns)` inputs.
///
/// The acyclicity half of [`verify_escape`] is literally
/// [`verify_turn_set`] on the same CDG, so a caller that has already run
/// Dally (the differential oracle's `evaluate`) can share that report
/// and pay only for the connectivity check — halving the CDG build and
/// cycle-search work per artifact. [`verify_escape`] is this function
/// on a report of its own.
pub fn verify_escape_given(
    dally: &crate::dally::VerificationReport,
    topo: &Topology,
    escape_universe: &[Channel],
    escape_turns: &TurnSet,
) -> DuatoReport {
    let (escape_connected, unreachable) = check_connectivity(topo, escape_universe, escape_turns);
    DuatoReport {
        escape_acyclic: dally.is_deadlock_free(),
        escape_cycle: dally.cycle.clone(),
        escape_connected,
        unreachable,
    }
}

/// Minimal-path connectivity of the escape subnetwork: one dynamic
/// program per destination instead of one search per ordered pair.
///
/// A legal move follows an escape class present at the node, along an
/// existing link, towards the destination (on a torus dimension, the
/// rotation that shortens the ring distance, `Plus` on a tie), so it
/// shortens the distance to `dst` by exactly one. `good[v]` is the set
/// of classes usable at `v` whose next hop is `dst` or has a class in
/// `good` that the turn set lets follow; `src` reaches `dst` iff
/// `good[src]` is non-empty.
///
/// Per node and link slot `(dim, dir)` one pass records the next node
/// and the mask of classes the link matches. A visited node `w` keeps
/// `pred[w]`, the OR of the transposed allow rows over `good[w]`: the
/// classes that may turn onto one of its good classes (every class for
/// `dst`). Then `good[v]` is the OR, over the at most `dims` slots that
/// shorten a coordinate, of `mask & pred[next]`. Nodes are visited
/// without sorting: per dimension and destination coordinate, a list of
/// the coordinates by steps to it (built once per call), walked as a
/// lexicographic odometer, reaches a node's next hop — one step fewer in
/// one coordinate, the others equal — before the node.
/// O(N · (dims + |good|) · words) per destination for N nodes.
///
/// The reported pair is the first failing `(src, dst)` in src-major
/// order.
fn check_connectivity(
    topo: &Topology,
    universe: &[Channel],
    turns: &TurnSet,
) -> (bool, Option<(NodeId, NodeId)>) {
    let (n, dims, radix) = (topo.node_count(), topo.dims(), topo.radix());
    // Connectivity asks where a class leads, not on which VC: a slot per
    // direction of a dimension, and `stay`, never matched, for a
    // coordinate already at the destination's.
    let (words, stay) = (bitrow::words_for(universe.len()), 2 * dims);
    let slots = stay + 1;
    let slot = |d: usize, dir: Direction| 2 * d + usize::from(dir == Direction::Minus);
    let classes = ClassBuckets::new(universe, stay, |cl| {
        (cl.dim.index() < dims).then(|| slot(cl.dim.index(), cl.dir))
    });
    // Per node and slot: the next node and the classes the link matches.
    // Where there is no link the mask is empty, so `next` may stay 0.
    let mut next = vec![0u32; n * slots];
    let mut mask = vec![0u64; n * slots * words];
    let mut walk = Walk::new(topo);
    loop {
        let v = walk.node();
        for d in 0..dims {
            for dir in [Direction::Plus, Direction::Minus] {
                if let Some(to) = walk.neighbor(d, dir) {
                    let at = v * slots + slot(d, dir);
                    next[at] = to as u32;
                    for c in classes.matched(slot(d, dir), walk.coords()) {
                        bitrow::set(&mut mask[at * words..][..words], c);
                    }
                }
            }
        }
        if !walk.advance() {
            break;
        }
    }

    // Per dimension `d` and target coordinate `t`: the `r` coordinates
    // by steps to `t`, `t` first, each as its share of the node id and
    // the slot that shortens it. `t - s` reaches `t` going `Plus` and
    // `t + s` going `Minus`; a ring goes the shorter way, `Plus` on a tie.
    let mut lists = Vec::with_capacity(radix.iter().map(|r| r * r).sum());
    let mut stride = n;
    for (d, &r) in radix.iter().enumerate() {
        stride /= r;
        let wrap = topo.wraps(Dimension::new(d as u8));
        for t in 0..r {
            lists.push((t * stride, stay));
            for s in 1..r {
                let plus = if wrap { 2 * s <= r } else { s <= t }.then(|| (t + r - s) % r);
                let minus = if wrap { 2 * s < r } else { t + s < r }.then(|| (t + s) % r);
                lists.extend(plus.map(|x| (x * stride, slot(d, Direction::Plus))));
                lists.extend(minus.map(|x| (x * stride, slot(d, Direction::Minus))));
            }
        }
    }

    let mut into = Vec::new();
    bitrow::allow_rows(universe, turns, true, &mut into);
    let mut start = vec![0usize; dims];
    let (mut pred, mut good) = (vec![0u64; n * words], vec![0u64; words]);
    let mut first: Option<(NodeId, NodeId)> = None;
    for dst in 0..n {
        // Where each dimension's list for the destination starts.
        let (mut rest, mut end) = (dst, lists.len());
        for d in (0..dims).rev() {
            end -= radix[d] * radix[d];
            start[d] = end + rest % radix[d] * radix[d];
            rest /= radix[d];
        }
        pred[dst * words..][..words].fill(!0);
        // The walk goes round once more, its coordinates now positions
        // in the lists: all zero, where it stands, is `dst` itself.
        while walk.advance() {
            let entry = |d: usize| lists[start[d] + walk.coords()[d] as usize];
            let v: usize = (0..dims).map(|d| entry(d).0).sum();
            for (w, g) in good.iter_mut().enumerate() {
                let hop = |at: usize| mask[at * words + w] & pred[next[at] as usize * words + w];
                *g = (0..dims).fold(0, |g, d| g | hop(v * slots + entry(d).1));
            }
            for w in 0..words {
                pred[v * words + w] = bitrow::ones(&good).fold(0, |p, c| p | into[c * words + w]);
            }
        }

        // Going straight is always allowed, so `pred[v]` holds `good[v]`
        // and is empty exactly when `good[v]` is. Only a smaller `src`
        // precedes the pair already found; `dst` ascends, so ties keep
        // the earlier one.
        let below = first.map_or(n, |(src, _)| src);
        let stuck =
            |src: &NodeId| *src != dst && pred[src * words..][..words].iter().all(|&w| w == 0);
        if let Some(src) = (0..below).find(stuck) {
            first = Some((src, dst));
            if src == 0 {
                break;
            }
        }
    }
    (first.is_none(), first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_core::{extract_turns, PartitionSeq};

    fn xy_escape() -> (Vec<Channel>, TurnSet) {
        // XY routing as the classic escape subnetwork.
        let seq = PartitionSeq::parse("X+ | X- | Y+ | Y-").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let universe = crate::dally::design_universe(&seq);
        (universe, ex.into_turn_set())
    }

    /// Every turn among the four plain 2D classes: connected but cyclic.
    fn all_turns() -> (Vec<Channel>, TurnSet) {
        let universe = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
        let mut turns = TurnSet::new();
        for &a in &universe {
            for &b in universe.iter().filter(|&&b| b != a) {
                turns.insert(ebda_core::Turn::new(a, b));
            }
        }
        (universe, turns)
    }

    #[test]
    fn xy_escape_satisfies_duato() {
        let (universe, turns) = xy_escape();
        let report = verify_escape(&Topology::mesh(&[4, 4]), &[1, 1], &universe, &turns);
        assert!(report.is_deadlock_free(), "{report}");
    }

    #[test]
    fn cyclic_escape_rejected() {
        let (universe, turns) = all_turns();
        let report = verify_escape(&Topology::mesh(&[4, 4]), &[1, 1], &universe, &turns);
        assert!(!report.is_deadlock_free());
        assert!(!report.escape_acyclic);
        assert!(report.escape_connected);
    }

    #[test]
    fn disconnected_escape_rejected() {
        // Escape with only X channels: acyclic but cannot route in Y.
        let universe = ebda_core::parse_channels("X+ X-").unwrap();
        let turns = TurnSet::new();
        let report = verify_escape(&Topology::mesh(&[3, 3]), &[1, 1], &universe, &turns);
        assert!(report.escape_acyclic);
        assert!(!report.escape_connected);
        assert!(report.unreachable.is_some());
    }

    #[test]
    fn drained_classes_cover_the_universe_only_when_acyclic() {
        let (universe, turns) = xy_escape();
        let report = verify_escape(&Topology::mesh(&[4, 4]), &[1, 1], &universe, &turns);
        let drained = report.drained_classes(&universe);
        assert_eq!(drained.len(), universe.len());
        assert!(drained.windows(2).all(|w| w[0] < w[1]), "{drained:?}");

        let (cyclic_universe, all) = all_turns();
        let cyclic = verify_escape(&Topology::mesh(&[4, 4]), &[1, 1], &cyclic_universe, &all);
        assert!(cyclic.drained_classes(&cyclic_universe).is_empty());
    }

    #[test]
    fn west_first_escape_is_connected_and_acyclic() {
        let seq = PartitionSeq::parse("X- | X+ Y+ Y-").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let universe = crate::dally::design_universe(&seq);
        let report = verify_escape(&Topology::mesh(&[5, 5]), &[1, 1], &universe, ex.turn_set());
        assert!(report.is_deadlock_free(), "{report}");
    }
}
