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
/// in Duato-style designs are dimension-ordered and minimal) — one
/// distance-ordered pass per destination, see `check_connectivity`.
pub fn verify_escape(
    topo: &Topology,
    vcs: &[u8],
    escape_universe: &[Channel],
    escape_turns: &TurnSet,
) -> DuatoReport {
    let dally = verify_turn_set(topo, vcs, escape_universe, escape_turns);
    let escape_acyclic = dally.is_deadlock_free();
    let (escape_connected, unreachable) = check_connectivity(topo, escape_universe, escape_turns);
    DuatoReport {
        escape_acyclic,
        escape_cycle: dally.cycle,
        escape_connected,
        unreachable,
    }
}

/// Checks Duato's conditions reusing an already-computed Dally report
/// for the *same* `(topology, vcs, universe, turns)` inputs.
///
/// The acyclicity half of [`verify_escape`] is literally
/// [`verify_turn_set`] on the same CDG, so a caller that has already run
/// Dally (the differential oracle's `evaluate`) can share that report
/// and pay only for the connectivity check — halving the CDG build and
/// cycle-search work per artifact. The returned report is byte-identical
/// to what [`verify_escape`] would produce.
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
/// shortens the distance to `dst` by exactly one. Visiting nodes by
/// ascending distance, `good[v]` is the set of classes usable at `v`
/// whose next hop is `dst` or has a class in `good` that the turn set
/// lets follow; `src` reaches `dst` iff `good[src]` is non-empty.
/// O(N² · k) for N nodes and k classes, with every table (allow rows,
/// coordinates, next hops) built once per call.
///
/// The reported pair is the first failing `(src, dst)` in src-major
/// order.
fn check_connectivity(
    topo: &Topology,
    universe: &[Channel],
    turns: &TurnSet,
) -> (bool, Option<(NodeId, NodeId)>) {
    const NONE: u32 = u32::MAX;
    let (n, dims, k) = (topo.node_count(), topo.dims(), universe.len());
    let words = bitrow::words_for(k);
    let mut allow = Vec::new();
    bitrow::allow_rows(universe, turns, &mut allow);
    let wrap: Vec<bool> = (0..dims)
        .map(|d| topo.wraps(Dimension::new(d as u8)))
        .collect();

    // Per node: its coordinates and, per class, the node one hop along
    // it (`NONE` where the class or the link is absent). Connectivity
    // asks where a class leads, not on which VC: a slot per direction
    // of a dimension.
    let slot = |d: usize, dir: Direction| 2 * d + usize::from(dir == Direction::Minus);
    let classes = ClassBuckets::new(universe, 2 * dims, |cl| {
        (cl.dim.index() < dims).then(|| slot(cl.dim.index(), cl.dir))
    });
    let mut coords = vec![0i64; n * dims];
    let mut hop = vec![NONE; n * k];
    let mut walk = Walk::new(topo);
    loop {
        let v = walk.node();
        coords[v * dims..][..dims].copy_from_slice(walk.coords());
        for d in 0..dims {
            for dir in [Direction::Plus, Direction::Minus] {
                if let Some(next) = walk.neighbor(d, dir) {
                    for c in classes.matched(slot(d, dir), walk.coords()) {
                        hop[v * k + c] = next as u32;
                    }
                }
            }
        }
        if !walk.advance() {
            break;
        }
    }

    let max_dist: usize = topo.radix().iter().map(|r| r - 1).sum();
    let mut toward: Vec<Option<Direction>> = vec![None; n * dims];
    let mut dist = vec![0usize; n];
    let mut bucket = vec![0usize; max_dist + 2];
    let mut order = vec![0usize; n];
    let mut good = vec![0u64; n * words];
    let mut first: Option<(NodeId, NodeId)> = None;
    for dst in 0..n {
        // Distance to `dst` and the shortening direction per dimension,
        // then a counting sort of the nodes by distance.
        bucket.fill(0);
        for v in 0..n {
            let mut total = 0;
            for d in 0..dims {
                let r = topo.radix()[d] as i64;
                let (here, want) = (coords[v * dims + d], coords[dst * dims + d]);
                let (steps, dir) = if wrap[d] {
                    let fwd = if want >= here {
                        want - here
                    } else {
                        want - here + r
                    };
                    if fwd <= r / 2 {
                        (fwd, Direction::Plus)
                    } else {
                        (r - fwd, Direction::Minus)
                    }
                } else if want >= here {
                    (want - here, Direction::Plus)
                } else {
                    (here - want, Direction::Minus)
                };
                toward[v * dims + d] = (steps != 0).then_some(dir);
                total += steps as usize;
            }
            dist[v] = total;
            bucket[total + 1] += 1;
        }
        for i in 1..bucket.len() {
            bucket[i] += bucket[i - 1];
        }
        for v in 0..n {
            order[bucket[dist[v]]] = v;
            bucket[dist[v]] += 1;
        }

        // `order[0]` is `dst` itself, the only node at distance zero.
        for &v in &order[1..] {
            good[v * words..][..words].fill(0);
            for (c, cl) in universe.iter().enumerate() {
                let next = hop[v * k + c];
                if next == NONE || toward[v * dims + cl.dim.index()] != Some(cl.dir) {
                    continue;
                }
                let next = next as usize;
                if next == dst
                    || bitrow::intersects(
                        &allow[c * words..][..words],
                        &good[next * words..][..words],
                    )
                {
                    bitrow::set(&mut good[v * words..][..words], c);
                }
            }
        }

        // Only a smaller `src` precedes the pair already found; `dst`
        // ascends, so ties keep the earlier one.
        let below = first.map_or(n, |(src, _)| src);
        let stuck =
            |src: &NodeId| *src != dst && good[src * words..][..words].iter().all(|&w| w == 0);
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

    #[test]
    fn xy_escape_satisfies_duato() {
        let (universe, turns) = xy_escape();
        let report = verify_escape(&Topology::mesh(&[4, 4]), &[1, 1], &universe, &turns);
        assert!(report.is_deadlock_free(), "{report}");
    }

    #[test]
    fn cyclic_escape_rejected() {
        // All-turns-allowed escape: connected but cyclic.
        let universe = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
        let mut turns = TurnSet::new();
        for &a in &universe {
            for &b in &universe {
                if a != b {
                    turns.insert(ebda_core::Turn::new(a, b));
                }
            }
        }
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

        let cyclic_universe = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
        let mut all = TurnSet::new();
        for &a in &cyclic_universe {
            for &b in &cyclic_universe {
                if a != b {
                    all.insert(ebda_core::Turn::new(a, b));
                }
            }
        }
        let cyclic = verify_escape(&Topology::mesh(&[4, 4]), &[1, 1], &cyclic_universe, &all);
        assert!(cyclic.drained_classes(&cyclic_universe).is_empty());
    }

    #[test]
    fn given_report_matches_standalone_check() {
        // Sharing the Dally report must not change any field of the
        // Duato verdict — cyclic and acyclic cases both.
        let cases = [xy_escape(), {
            let universe = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
            let mut turns = TurnSet::new();
            for &a in &universe {
                for &b in &universe {
                    if a != b {
                        turns.insert(ebda_core::Turn::new(a, b));
                    }
                }
            }
            (universe, turns)
        }];
        for (universe, turns) in cases {
            for topo in [Topology::mesh(&[4, 4]), Topology::torus(&[4, 4])] {
                let standalone = verify_escape(&topo, &[1, 1], &universe, &turns);
                let dally = verify_turn_set(&topo, &[1, 1], &universe, &turns);
                let shared = verify_escape_given(&dally, &topo, &universe, &turns);
                assert_eq!(standalone.escape_acyclic, shared.escape_acyclic);
                assert_eq!(standalone.escape_connected, shared.escape_connected);
                assert_eq!(standalone.unreachable, shared.unreachable);
                let a = standalone.escape_cycle.map(|c| format!("{c:?}"));
                let b = shared.escape_cycle.map(|c| format!("{c:?}"));
                assert_eq!(a, b, "witness cycles must be byte-identical");
            }
        }
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
