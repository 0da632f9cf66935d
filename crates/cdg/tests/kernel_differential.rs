//! Differential tests of the verification kernels against the code
//! they replaced, kept here as the reference (a faster checker counts
//! only if it gives the same answers):
//!
//! * Cycle search — the adjacency-list DFS in `cycle_ref/` against
//!   `csr::find_cycle` on fixed graphs with known answers: same witness
//!   (`proptest_cycles.rs` repeats the comparison on random graphs).
//! * Duato connectivity — the per-pair BFS over `(node, last class)`
//!   states ([`reference_connectivity`]) against the per-destination
//!   dynamic program behind `verify_escape_given`: same
//!   `escape_connected`, same `unreachable` pair. Extra topologies aim
//!   at its visit order: ring ties in every dimension, radix-1 and
//!   radix-2 dimensions, a 4-D mesh, a ring beside a line with links
//!   cut. And `verify_escape` against `verify_turn_set` +
//!   `verify_escape_given`: the same report, witness cycle included.
//! * CDG build — the dependency rule asked of every adjacent channel
//!   pair ([`reference_cdg`]: `Cdg::from_rule` with the literal
//!   class-match rule, itself checked against a double loop over the
//!   links) against the kind table of `Cdg::from_turn_set` and of one
//!   `Skeleton` filled for several turn sets: same channels, same rows
//!   in the same order.
//! * Verdicts without a graph — `Skeleton::{find_cycle, is_acyclic}`
//!   over one `Relation` edited from turn set to turn set against
//!   `fill` + `csr::find_cycle`: same witness from a fresh search, same
//!   boolean with a kept cycle in play.
//! * Turn-model enumeration — the `TurnSet` and `Cdg::from_turn_set`
//!   per model that `turn_model` ran before ([`reference_is_free`])
//!   against the three enumerations, verdict by verdict: the 4 096 3D
//!   models, the 16 of Glass and Ni, the sampled stream, and (in
//!   release) all 65 536 two-VC models with their count and orbits.
//!
//! Inputs are seed-pinned random turn relations over random class
//! universes (parity / `AtCoord` / `NotAtCoord` classes, dropped and
//! duplicated entries, more than 64 classes) on meshes, tori (radix 1,
//! 2, odd, even), a mixed mesh/torus, partially connected 3D meshes and
//! topologies with failed links, and hand-made universes aimed at the
//! kind table: one link kind split into many kinds, entries no channel
//! can match, no entries at all, more kinds than link kinds or a byte.

mod cycle_ref;

use ebda_cdg::csr;
use ebda_cdg::duato::{verify_escape, verify_escape_given};
use ebda_cdg::graph::Relation;
use ebda_cdg::turn_model::{
    abstract_cycles, abstract_cycles_2d, abstract_cycles_2d_vc, deadlock_free_combinations,
    deadlock_free_combinations_2d, sample_deadlock_free_2d_vc, unique_turn_sets_up_to_symmetry,
};
use ebda_cdg::{
    verify_turn_set, Cdg, ConcreteChannel, NodeId, Skeleton, Topology, VerificationReport,
};
use ebda_core::{Channel, Dimension, Direction, Parity, Turn, TurnSet};
use ebda_obs::Rng64;
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// Reference: the per-pair BFS `check_connectivity` used before the DP.
// ---------------------------------------------------------------------

fn reference_connectivity(
    topo: &Topology,
    universe: &[Channel],
    turns: &TurnSet,
) -> (bool, Option<(NodeId, NodeId)>) {
    let n = topo.node_count();
    for src in 0..n {
        for dst in 0..n {
            if src != dst && !reachable(topo, universe, turns, src, dst) {
                return (false, Some((src, dst)));
            }
        }
    }
    (true, None)
}

fn reachable(
    topo: &Topology,
    universe: &[Channel],
    turns: &TurnSet,
    src: NodeId,
    dst: NodeId,
) -> bool {
    // State: (node, last class index or usize::MAX at injection).
    let k = universe.len();
    let mut seen = vec![false; topo.node_count() * (k + 1)];
    let state = |node: NodeId, last: usize| node * (k + 1) + last;
    let mut queue = VecDeque::new();
    queue.push_back((src, usize::MAX));
    seen[state(src, k)] = true;
    let dstc = topo.coords(dst);
    while let Some((node, last)) = queue.pop_front() {
        if node == dst {
            return true;
        }
        let coords = topo.coords(node);
        for (ci, &c) in universe.iter().enumerate() {
            // Minimal move: the hop must reduce distance to dst.
            let here = coords[c.dim.index()];
            let want = dstc[c.dim.index()];
            let towards = if topo.wraps(c.dim) {
                // On tori allow either rotation that reduces ring distance.
                let r = topo.radix()[c.dim.index()] as i64;
                let fwd = ((want - here) % r + r) % r;
                match c.dir {
                    Direction::Plus => fwd != 0 && fwd <= r / 2,
                    Direction::Minus => fwd != 0 && fwd > r / 2,
                }
            } else {
                match c.dir {
                    Direction::Plus => want > here,
                    Direction::Minus => want < here,
                }
            };
            if !towards || !c.class.contains(&coords) {
                continue;
            }
            let allowed = last == usize::MAX || turns.allows(universe[last], c);
            if !allowed {
                continue;
            }
            if let Some(next) = topo.neighbor(node, c.dim, c.dir) {
                let s = state(next, ci);
                if !seen[s] {
                    seen[s] = true;
                    queue.push_back((next, ci));
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Reference: the class-match rule with a `Vec` per channel and a
// `TurnSet` probe per class pair, and the link-by-link enumeration.
// ---------------------------------------------------------------------

fn reference_cdg(topo: &Topology, vcs: &[u8], universe: &[Channel], turns: &TurnSet) -> Cdg {
    let matches = |cc: ConcreteChannel| -> Vec<Channel> {
        let coords = topo.coords(cc.from);
        universe
            .iter()
            .copied()
            .filter(|cl| {
                cl.dim == cc.dim && cl.dir == cc.dir && cl.vc == cc.vc && cl.class.contains(&coords)
            })
            .collect()
    };
    Cdg::from_rule(topo, vcs, |a, b| {
        matches(a)
            .iter()
            .any(|&ca| matches(b).iter().any(|&cb| turns.allows(ca, cb)))
    })
}

fn reference_channels(topo: &Topology, vcs: &[u8]) -> Vec<ConcreteChannel> {
    let mut out = Vec::new();
    for (from, to, dim, dir) in topo.links() {
        for vc in 1..=vcs[dim.index()] {
            out.push(ConcreteChannel {
                from,
                to,
                dim,
                dir,
                vc,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Seed-pinned inputs.
// ---------------------------------------------------------------------

fn topologies() -> Vec<(&'static str, Topology)> {
    let (x, y, z) = (Dimension::X, Dimension::Y, Dimension::Z);
    let (plus, minus) = (Direction::Plus, Direction::Minus);
    vec![
        ("mesh4x4", Topology::mesh(&[4, 4])),
        ("mesh5x3", Topology::mesh(&[5, 3])),
        ("mesh1x4", Topology::mesh(&[1, 4])),
        ("mesh2x2", Topology::mesh(&[2, 2])),
        ("mesh3x3x3", Topology::mesh(&[3, 3, 3])),
        ("torus1x3", Topology::torus(&[1, 3])),
        ("torus2x2", Topology::torus(&[2, 2])),
        ("torus2x3", Topology::torus(&[2, 3])),
        ("torus5x5", Topology::torus(&[5, 5])),
        ("torus4x4", Topology::torus(&[4, 4])),
        ("torus4x6", Topology::torus(&[4, 6])),
        (
            "mixed4x4",
            Topology::mesh(&[4, 4]).with_wrap(&[true, false]),
        ),
        (
            "partial3x3x2",
            Topology::mesh(&[3, 3, 2]).with_partial_dim(z, [vec![0, 0], vec![2, 2]]),
        ),
        (
            "partial2x3x3",
            Topology::mesh(&[2, 3, 3]).with_partial_dim(z, [vec![1, 1]]),
        ),
        (
            "mesh4x4-failed",
            Topology::mesh(&[4, 4])
                .with_failed_link(5, x, plus)
                .with_failed_link(10, y, minus),
        ),
        (
            "torus4x4-failed",
            Topology::torus(&[4, 4]).with_failed_link(15, y, plus),
        ),
        (
            "mesh3x3x2-failed",
            Topology::mesh(&[3, 3, 2]).with_failed_link(4, z, plus),
        ),
    ]
}

/// Every `(dim, dir, vc)` of the topology, each kept whole, split by a
/// parity or by a coordinate, narrowed to one coordinate, or dropped;
/// then some entries duplicated and the whole list shuffled.
fn random_universe(rng: &mut Rng64, topo: &Topology, vcs: &[u8]) -> Vec<Channel> {
    let dims = topo.dims();
    let mut out = Vec::new();
    for (d, &vcs_along) in vcs.iter().enumerate() {
        for dir in [Direction::Plus, Direction::Minus] {
            for vc in 1..=vcs_along {
                let base = Channel::with_vc(Dimension::new(d as u8), dir, vc);
                let axis_index = rng.gen_index(dims);
                let axis = Dimension::new(axis_index as u8);
                let value = rng.gen_index(topo.radix()[axis_index]) as i64;
                match rng.gen_index(20) {
                    0..=9 => out.push(base),
                    10..=12 => {
                        out.push(base.at_parity(axis, Parity::Even));
                        out.push(base.at_parity(axis, Parity::Odd));
                    }
                    13..=15 => {
                        out.push(base.at_coord(axis, value));
                        out.push(base.not_at_coord(axis, value));
                    }
                    16 => out.push(base.at_coord(axis, value)),
                    17 => out.push(base.not_at_coord(axis, value)),
                    _ => {}
                }
            }
        }
    }
    if !out.is_empty() {
        for _ in 0..rng.gen_index(3) {
            out.push(out[rng.gen_index(out.len())]);
        }
    }
    rng.shuffle(&mut out);
    out
}

/// Every class variant of a 2D two-VC network: 8 bases times (whole,
/// 4 parity halves, 8 `AtCoord`, 8 `NotAtCoord`) = 168 classes, cut to
/// `keep` after a shuffle — three bit-row words at most.
fn big_universe(rng: &mut Rng64, radix: usize, keep: usize) -> Vec<Channel> {
    let mut out = Vec::new();
    for dim in [Dimension::X, Dimension::Y] {
        for dir in [Direction::Plus, Direction::Minus] {
            for vc in 1..=2u8 {
                let base = Channel::with_vc(dim, dir, vc);
                out.push(base);
                for axis in [Dimension::X, Dimension::Y] {
                    out.push(base.at_parity(axis, Parity::Even));
                    out.push(base.at_parity(axis, Parity::Odd));
                    for value in 0..radix.min(4) as i64 {
                        out.push(base.at_coord(axis, value));
                        out.push(base.not_at_coord(axis, value));
                    }
                }
            }
        }
    }
    rng.shuffle(&mut out);
    out.truncate(keep);
    out
}

/// Each ordered pair of distinct classes, kept with probability `p`.
fn random_turns(rng: &mut Rng64, universe: &[Channel], p: f64) -> TurnSet {
    let mut turns = TurnSet::new();
    for &a in universe {
        for &b in universe {
            if a != b && rng.gen_bool(p) {
                turns.insert(Turn::new(a, b));
            }
        }
    }
    turns
}

fn random_vcs(rng: &mut Rng64, dims: usize) -> Vec<u8> {
    (0..dims).map(|_| 1 + rng.gen_index(2) as u8).collect()
}

const DENSITIES: [f64; 5] = [0.0, 0.15, 0.5, 0.85, 1.0];

// ---------------------------------------------------------------------
// Duato connectivity.
// ---------------------------------------------------------------------

fn connectivity_under_test(
    topo: &Topology,
    universe: &[Channel],
    turns: &TurnSet,
) -> (bool, Option<(NodeId, NodeId)>) {
    // The acyclicity half is handed in; connectivity ignores it.
    let dally = VerificationReport {
        channels: 0,
        dependencies: 0,
        cycle: None,
    };
    let report = verify_escape_given(&dally, topo, universe, turns);
    (report.escape_connected, report.unreachable)
}

#[test]
fn connectivity_dp_matches_the_per_pair_bfs() {
    let mut rng = Rng64::new(0x00D0_A701);
    let (mut connected, mut stuck_at_zero, mut stuck_later) = (0, 0, 0);
    let mut tally = |got: (bool, Option<(NodeId, NodeId)>)| match got.1 {
        None => connected += 1,
        Some((0, _)) => stuck_at_zero += 1,
        Some(_) => stuck_later += 1,
    };
    // The visit order's corner cases: ring ties at r/2 in every
    // dimension, radix-1 and radix-2 dimensions between others, four
    // digits in the odometer, and a ring next to a line with links cut.
    let (x, y) = (Dimension::X, Dimension::Y);
    let odometers = [
        ("torus6x4", Topology::torus(&[6, 4])),
        ("torus8x2", Topology::torus(&[8, 2])),
        ("mesh3x1x2", Topology::mesh(&[3, 1, 2])),
        ("torus2x1x3", Topology::torus(&[2, 1, 3])),
        ("mesh2x3x2x3", Topology::mesh(&[2, 3, 2, 3])),
        (
            "mixed4x5-failed",
            Topology::mesh(&[4, 5])
                .with_wrap(&[false, true])
                .with_failed_link(7, y, Direction::Minus)
                .with_failed_link(12, x, Direction::Plus),
        ),
    ];
    for (name, topo) in topologies().into_iter().chain(odometers) {
        for round in 0..12 {
            let vcs = random_vcs(&mut rng, topo.dims());
            let universe = random_universe(&mut rng, &topo, &vcs);
            let turns = random_turns(&mut rng, &universe, DENSITIES[round % DENSITIES.len()]);
            let want = reference_connectivity(&topo, &universe, &turns);
            let got = connectivity_under_test(&topo, &universe, &turns);
            assert_eq!(got, want, "{name} round {round}: {universe:?} / {turns}");
            tally(got);
        }
        // Every class whole and every turn allowed: only the topology
        // (missing columns, failed links) can disconnect the escape, and
        // it does so away from node 0.
        let mut universe = Vec::new();
        for d in 0..topo.dims() {
            for dir in [Direction::Plus, Direction::Minus] {
                universe.push(Channel::new(Dimension::new(d as u8), dir));
            }
        }
        let turns = random_turns(&mut rng, &universe, 1.0);
        let want = reference_connectivity(&topo, &universe, &turns);
        let got = connectivity_under_test(&topo, &universe, &turns);
        assert_eq!(got, want, "{name}, all turns");
        tally(got);
    }
    // More than 64 classes: two- and three-word bit rows.
    for (radix, keep) in [(4usize, 70usize), (3, 130), (4, 168)] {
        for topo in [
            Topology::mesh(&[radix, radix]),
            Topology::torus(&[radix, radix]),
        ] {
            let universe = big_universe(&mut rng, radix, keep);
            assert!(universe.len() > 64);
            for p in [0.05, 0.6] {
                let turns = random_turns(&mut rng, &universe, p);
                let want = reference_connectivity(&topo, &universe, &turns);
                let got = connectivity_under_test(&topo, &universe, &turns);
                assert_eq!(got, want, "big universe {keep} on radix {radix}, p {p}");
                tally(got);
            }
        }
    }
    // Wide universes with entries listed twice, at three densities, on
    // an even ring, a line and both at once with a link cut.
    for (radix, keep) in [(4usize, 66usize), (3, 100)] {
        for topo in [
            Topology::torus(&[4, radix]),
            Topology::mesh(&[radix, 4]),
            Topology::mesh(&[4, radix])
                .with_wrap(&[true, false])
                .with_failed_link(2, y, Direction::Plus),
        ] {
            let mut universe = big_universe(&mut rng, radix, keep);
            for _ in 0..keep / 8 {
                universe.push(universe[rng.gen_index(keep)]);
            }
            rng.shuffle(&mut universe);
            for p in [0.03, 0.2, 0.6] {
                let turns = random_turns(&mut rng, &universe, p);
                let want = reference_connectivity(&topo, &universe, &turns);
                let got = connectivity_under_test(&topo, &universe, &turns);
                assert_eq!(got, want, "{keep} classes and duplicates, {topo:?}, p {p}");
                tally(got);
            }
        }
    }
    // The inputs must exercise all three outcomes, the interesting one
    // being a first failing pair whose source is not node 0.
    assert!(connected >= 10, "only {connected} connected escapes");
    assert!(stuck_at_zero >= 10, "only {stuck_at_zero} stuck at node 0");
    assert!(
        stuck_later >= 3,
        "only {stuck_later} stuck at a later source"
    );
}

/// Sharing the Dally report must not change any field of the Duato
/// verdict, the witness cycle's bytes included: `verify_escape` against
/// `verify_turn_set` + `verify_escape_given` on every topology of the
/// file, with cyclic and acyclic escapes.
#[test]
fn given_report_matches_standalone_check() {
    let mut rng = Rng64::new(0x00D0_A702);
    let (mut cyclic, mut acyclic) = (0, 0);
    for (name, topo) in topologies() {
        for (round, p) in [0.0, 0.05, 0.3, 1.0].into_iter().enumerate() {
            let vcs = random_vcs(&mut rng, topo.dims());
            let universe = random_universe(&mut rng, &topo, &vcs);
            let turns = random_turns(&mut rng, &universe, p);
            let standalone = verify_escape(&topo, &vcs, &universe, &turns);
            let dally = verify_turn_set(&topo, &vcs, &universe, &turns);
            let shared = verify_escape_given(&dally, &topo, &universe, &turns);
            let (a, b) = (format!("{standalone:?}"), format!("{shared:?}"));
            assert_eq!(a, b, "{name} round {round}");
            if standalone.escape_acyclic {
                acyclic += 1;
            } else {
                cyclic += 1;
            }
        }
    }
    assert!(
        cyclic >= 10 && acyclic >= 10,
        "{cyclic} cyclic, {acyclic} acyclic"
    );
}

// ---------------------------------------------------------------------
// CDG build.
// ---------------------------------------------------------------------

fn assert_same_graph(got: &Cdg, want: &Cdg, context: &str) {
    assert_eq!(got.channels(), want.channels(), "{context}: channels");
    for i in 0..want.node_count() {
        assert_eq!(
            got.successors(i),
            want.successors(i),
            "{context}: row {i} ({})",
            want.channels()[i]
        );
    }
}

#[test]
fn mask_build_matches_the_class_match_rule() {
    let mut rng = Rng64::new(0x00C0_D601);
    let mut edges = 0;
    for (name, topo) in topologies() {
        for round in 0..6 {
            let vcs = random_vcs(&mut rng, topo.dims());
            let universe = random_universe(&mut rng, &topo, &vcs);
            assert_eq!(
                Skeleton::new(&topo, &vcs, &[]).channels(),
                reference_channels(&topo, &vcs),
                "{name}: channel enumeration"
            );
            // One skeleton serves every turn set over this universe.
            let skeleton = Skeleton::new(&topo, &vcs, &universe);
            assert_eq!(skeleton.channels(), reference_channels(&topo, &vcs));
            for &p in &DENSITIES {
                let turns = random_turns(&mut rng, &universe, p);
                let context = format!("{name} round {round} p {p}: {universe:?} / {turns}");
                let want = reference_cdg(&topo, &vcs, &universe, &turns);
                let got = Cdg::from_turn_set(&topo, &vcs, &universe, &turns);
                assert_same_graph(&got, &want, &context);
                let filled = skeleton.fill(&turns);
                assert_eq!(filled.edge_count(), want.edge_count(), "{context}: fill");
                for i in 0..want.node_count() {
                    assert_eq!(filled.row(i), want.successors(i), "{context}: fill row {i}");
                }
                edges += want.edge_count();
            }
        }
    }
    assert!(edges > 10_000, "the random graphs are not empty: {edges}");
}

#[test]
fn mask_build_handles_universes_wider_than_one_word() {
    let mut rng = Rng64::new(0x00C0_D602);
    for (radix, keep) in [(4usize, 65usize), (4, 100), (3, 168)] {
        for topo in [
            Topology::mesh(&[radix, radix]),
            Topology::torus(&[radix, radix]),
        ] {
            let universe = big_universe(&mut rng, radix, keep);
            assert!(universe.len() > 64);
            for p in [0.02, 0.3] {
                let turns = random_turns(&mut rng, &universe, p);
                let want = reference_cdg(&topo, &[2, 2], &universe, &turns);
                let got = Cdg::from_turn_set(&topo, &[2, 2], &universe, &turns);
                assert!(want.edge_count() > 0);
                assert_same_graph(
                    &got,
                    &want,
                    &format!("{keep} classes, radix {radix}, p {p}"),
                );
            }
        }
    }
    // A narrow universe right after a wide one reuses the fill's
    // recycled bit rows: stale words must not leak.
    let topo = Topology::mesh(&[4, 4]);
    let universe = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
    let turns = random_turns(&mut rng, &universe, 0.5);
    assert_same_graph(
        &Cdg::from_turn_set(&topo, &[1, 1], &universe, &turns),
        &reference_cdg(&topo, &[1, 1], &universe, &turns),
        "narrow after wide",
    );
}

/// Universes made to strain the kind table rather than drawn at random,
/// each with the least number of kinds it must produce on `topo` (0:
/// whatever comes).
fn kind_universes(topo: &Topology, vcs: &[u8]) -> Vec<(&'static str, Vec<Channel>, usize)> {
    let (x, y) = (Dimension::X, Dimension::Y);
    let (plus, minus) = (Direction::Plus, Direction::Minus);
    let xp = Channel::new(x, plus);

    // One link kind, seven classes that differ in their restriction
    // only: its channels fall into several kinds.
    let mut restriction_only = vec![
        xp,
        xp.at_parity(y, Parity::Even),
        xp.at_parity(y, Parity::Odd),
        xp.at_coord(x, 0),
        xp.not_at_coord(x, 0),
        xp.at_coord(y, 1),
        xp.not_at_coord(y, 1),
        Channel::new(y, minus).at_parity(x, Parity::Odd),
        Channel::new(y, plus),
    ];
    // A restriction along a dimension the network does not have never
    // holds.
    restriction_only.push(Channel::new(x, minus).at_coord(Dimension::new(7), 0));

    // Equal entries, next to each other and apart.
    let half = xp.at_parity(x, Parity::Even);
    let duplicates = vec![xp, xp, Channel::new(y, plus), half, xp, half, half];

    // Entries no channel matches — a VC above the budget, VC 0, a
    // dimension past the last — between entries that are matched.
    let beyond = vec![
        Channel::with_vc(x, plus, vcs[0] + 1),
        xp,
        Channel::with_vc(x, minus, 0),
        Channel::with_vc(y, minus, vcs[1] + 1).at_parity(x, Parity::Odd),
        Channel::new(Dimension::new(topo.dims() as u8), plus),
        Channel::new(y, minus),
        Channel::with_vc(x, plus, u8::MAX).at_coord(x, 0),
    ];

    // A class per coordinate along X and Y: on a 2D network every
    // `X1+` channel matches a pair of its own — a kind per channel.
    let mut per_node = vec![Channel::new(y, plus)];
    for value in 0..topo.radix()[0] as i64 {
        per_node.push(xp.at_coord(x, value));
    }
    for value in 0..topo.radix()[1] as i64 {
        per_node.push(xp.at_coord(y, value));
    }
    let links = topo.links();
    let xp_links = links.iter().filter(|l| (l.2, l.3) == (x, plus)).count();
    let a_kind_each = if topo.dims() == 2 { xp_links } else { 0 };

    vec![
        ("restriction only", restriction_only, 0),
        ("duplicates", duplicates, 0),
        ("beyond the budget", beyond, 0),
        ("empty", Vec::new(), 0),
        ("a kind per channel", per_node, a_kind_each),
    ]
}

#[test]
fn kind_table_matches_the_class_match_rule_on_universes_made_for_it() {
    let mut rng = Rng64::new(0x00C0_D604);
    let (mut edges, mut split) = (0, 0);
    for (name, topo) in topologies() {
        let vcs = random_vcs(&mut rng, topo.dims());
        let link_kinds: usize = vcs.iter().map(|&v| 2 * v as usize).sum();
        for (what, universe, least) in kind_universes(&topo, &vcs) {
            let skeleton = Skeleton::new(&topo, &vcs, &universe);
            assert_eq!(skeleton.channels(), reference_channels(&topo, &vcs));
            let kinds = skeleton.kinds();
            assert!(kinds >= least, "{name} / {what}: {kinds} kinds < {least}");
            assert!(kinds <= skeleton.channels().len(), "{name} / {what}");
            split += usize::from(kinds > link_kinds);
            let mut relation = skeleton.relation(&TurnSet::new());
            for p in [0.0, 0.3, 1.0, 0.6] {
                let turns = random_turns(&mut rng, &universe, p);
                let context = format!("{name} / {what}, p {p}: {universe:?} / {turns}");
                let want = reference_cdg(&topo, &vcs, &universe, &turns);
                let got = Cdg::from_turn_set(&topo, &vcs, &universe, &turns);
                assert_same_graph(&got, &want, &context);
                let filled = skeleton.fill(&turns);
                for i in 0..want.node_count() {
                    assert_eq!(filled.row(i), want.successors(i), "{context}: fill row {i}");
                }
                assert_skeleton_verdict(&skeleton, &universe, &turns, &mut relation, &context);
                edges += want.edge_count();
            }
        }
    }
    assert!(edges > 5_000, "the graphs are not empty: {edges}");
    assert!(split >= 20, "only {split} universes split a link kind");

    // More kinds than a byte numbers, and than the skeleton's first
    // guess of one per link kind: the index must not wrap.
    let topo = Topology::mesh(&[17, 17]);
    let (_, universe, least) = kind_universes(&topo, &[1, 1]).pop().unwrap();
    let skeleton = Skeleton::new(&topo, &[1, 1], &universe);
    assert!(least > 256 && skeleton.kinds() >= least, "{least} kinds");
    let turns = random_turns(&mut rng, &universe, 0.4);
    let want = reference_cdg(&topo, &[1, 1], &universe, &turns);
    let got = Cdg::from_turn_set(&topo, &[1, 1], &universe, &turns);
    assert!(want.edge_count() > 0);
    assert_same_graph(&got, &want, "a kind per channel on 17x17");
}

#[test]
fn from_rule_asks_the_rule_of_every_adjacent_pair() {
    // `reference_cdg` stands on `from_rule` (a skeleton over the empty
    // universe): pin that against the definition, a double loop over
    // the channels.
    let mut rng = Rng64::new(0x00C0_D605);
    for (name, topo) in topologies() {
        let vcs = random_vcs(&mut rng, topo.dims());
        let channels = reference_channels(&topo, &vcs);
        let coin: Vec<bool> = (0..channels.len()).map(|_| rng.gen_bool(0.5)).collect();
        let at = |c: ConcreteChannel| channels.iter().position(|&x| x == c).unwrap();
        let rule = |a: ConcreteChannel, b: ConcreteChannel| {
            assert_eq!(
                a.to, b.from,
                "{name}: the rule is asked of adjacent pairs only"
            );
            coin[at(a)] != coin[at(b)] || a.vc < b.vc
        };
        let got = Cdg::from_rule(&topo, &vcs, rule);
        assert_eq!(got.channels(), channels, "{name}");
        for (i, &a) in channels.iter().enumerate() {
            let adjacent = channels.iter().enumerate().filter(|(_, b)| a.to == b.from);
            let want: Vec<u32> = adjacent
                .filter(|&(_, &b)| rule(a, b))
                .map(|(j, _)| j as u32)
                .collect();
            assert_eq!(got.successors(i), want, "{name}: row {i}");
        }
    }
}

// ---------------------------------------------------------------------
// Verdicts read off the skeleton.
// ---------------------------------------------------------------------

/// Edits `relation` into the relation of `turns`, one class pair at a
/// time, and checks both ways of asking: `is_acyclic` (which may reuse
/// the cycle kept from the turn set before) gives the filled graph's
/// boolean, a fresh `find_cycle` its witness.
fn assert_skeleton_verdict(
    skeleton: &Skeleton,
    universe: &[Channel],
    turns: &TurnSet,
    relation: &mut Relation,
    context: &str,
) -> bool {
    for (i, &a) in universe.iter().enumerate() {
        for (j, &b) in universe.iter().enumerate() {
            relation.set(i, j, turns.allows(a, b));
        }
    }
    let want = csr::find_cycle(&skeleton.fill(turns));
    let acyclic = skeleton.is_acyclic(relation);
    assert_eq!(acyclic, want.is_none(), "{context}: verdict");
    let fresh = skeleton.find_cycle(relation).map(<[u32]>::to_vec);
    assert_eq!(fresh, want, "{context}: witness of a fresh search");
    let mut from_turns = skeleton.relation(turns);
    let direct = skeleton.find_cycle(&mut from_turns).map(<[u32]>::to_vec);
    assert_eq!(direct, want, "{context}: a relation made from the turn set");
    acyclic
}

#[test]
fn skeleton_verdicts_match_the_filled_graph() {
    let mut rng = Rng64::new(0x00C0_D603);
    let (mut acyclic, mut cyclic) = (0, 0);
    let mut tally = |free: bool| *(if free { &mut acyclic } else { &mut cyclic }) += 1;
    for (name, topo) in topologies() {
        for round in 0..6 {
            let vcs = random_vcs(&mut rng, topo.dims());
            let universe = random_universe(&mut rng, &topo, &vcs);
            let skeleton = Skeleton::new(&topo, &vcs, &universe);
            // One relation walks up and down the densities, so a cycle
            // kept at one turn set meets the next one's edits.
            let mut relation = skeleton.relation(&TurnSet::new());
            for p in [0.0, 0.5, 1.0, 0.85, 0.3, 0.85, 0.15, 0.5] {
                let turns = random_turns(&mut rng, &universe, p);
                let context = format!("{name} round {round} p {p}: {universe:?} / {turns}");
                tally(assert_skeleton_verdict(
                    &skeleton,
                    &universe,
                    &turns,
                    &mut relation,
                    &context,
                ));
            }
        }
    }
    // More than 64 classes: channels matching several of them, bit rows
    // of two and three words.
    for (radix, keep) in [(4usize, 65usize), (4, 100), (3, 168)] {
        for topo in [
            Topology::mesh(&[radix, radix]),
            Topology::torus(&[radix, radix]),
        ] {
            let universe = big_universe(&mut rng, radix, keep);
            let skeleton = Skeleton::new(&topo, &[2, 2], &universe);
            let mut relation = skeleton.relation(&TurnSet::new());
            for p in [0.0, 0.02, 0.3, 0.02, 0.01] {
                let turns = random_turns(&mut rng, &universe, p);
                let context = format!("{keep} classes, radix {radix}, p {p}");
                tally(assert_skeleton_verdict(
                    &skeleton,
                    &universe,
                    &turns,
                    &mut relation,
                    &context,
                ));
            }
        }
    }
    assert!(acyclic >= 100, "only {acyclic} acyclic relations");
    assert!(cyclic >= 100, "only {cyclic} cyclic relations");
}

// ---------------------------------------------------------------------
// Turn-model enumeration: a turn set and a graph per model.
// ---------------------------------------------------------------------

/// A plain mesh, its class universe and its abstract cycles: one of the
/// model spaces `turn_model` enumerates.
struct Space {
    topo: Topology,
    vcs: Vec<u8>,
    universe: Vec<Channel>,
    cycles: Vec<[Turn; 4]>,
}

impl Space {
    fn new(dims: usize, radix: usize, q: u8, cycles: Vec<[Turn; 4]>) -> Space {
        let mut universe = Vec::new();
        for vc in 1..=q {
            for d in 0..dims {
                for dir in [Direction::Plus, Direction::Minus] {
                    universe.push(Channel::with_vc(Dimension::new(d as u8), dir, vc));
                }
            }
        }
        Space {
            topo: Topology::mesh(&vec![radix; dims]),
            vcs: vec![q; dims],
            universe,
            cycles,
        }
    }

    fn digits(&self, combo: u128) -> Vec<usize> {
        (0..self.cycles.len())
            .map(|c| (combo >> (2 * c) & 3) as usize)
            .collect()
    }
}

/// The turns a model allows, as `turn_model` listed them: every turn of
/// the space's cycles but turn `digits[c]` of cycle `c`.
fn reference_allowed(space: &Space, digits: &[usize]) -> TurnSet {
    let mut all_turns: Vec<Turn> = space.cycles.iter().flatten().copied().collect();
    all_turns.sort_unstable();
    all_turns.dedup();
    let prohibited: Vec<Turn> = space
        .cycles
        .iter()
        .zip(digits)
        .map(|(c, &k)| c[k])
        .collect();
    all_turns
        .iter()
        .copied()
        .filter(|t| !prohibited.contains(t))
        .collect()
}

/// The per-model body `turn_model` had: the allowed turns as a filtered
/// list, a `TurnSet` of them, a CDG built for it and searched.
fn reference_is_free(space: &Space, digits: &[usize]) -> bool {
    let allowed = reference_allowed(space, digits);
    Cdg::from_turn_set(&space.topo, &space.vcs, &space.universe, &allowed).is_acyclic()
}

/// The sampling loop as it was: one SplitMix64 word per model, reduced
/// modulo the size of the space.
fn reference_sample(space: &Space, samples: u64, seed: u64) -> (u64, u64) {
    let total: u128 = 1u128 << (2 * space.cycles.len() as u32);
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let free = (0..samples)
        .filter(|_| reference_is_free(space, &space.digits(next() as u128 % total)))
        .count();
    (samples, free as u64)
}

#[test]
fn enumerations_match_the_per_model_build() {
    // All 4 096 3D models, on both mesh sizes the repository uses.
    for radix in [3, 4] {
        let space = Space::new(3, radix, 1, abstract_cycles(3));
        let want: Vec<Vec<usize>> = (0..4096)
            .map(|combo| space.digits(combo))
            .filter(|digits| reference_is_free(&space, digits))
            .collect();
        assert_eq!(want.len(), 176);
        assert_eq!(deadlock_free_combinations(3, radix), want, "radix {radix}");
    }
    // The 16 of Glass and Ni, in `(cw, ccw)` order.
    let (cw, ccw) = abstract_cycles_2d();
    let space = Space::new(2, 6, 1, vec![cw, ccw]);
    let got = deadlock_free_combinations_2d(6);
    let mut at = 0;
    for combo in 0..16usize {
        let (i, j) = (combo / 4, combo % 4);
        let listed = got.get(at).is_some_and(|c| (c.cw, c.ccw) == (i, j));
        assert_eq!(listed, reference_is_free(&space, &[i, j]), "cw {i} ccw {j}");
        if listed {
            assert_eq!(got[at].allowed, reference_allowed(&space, &[i, j]));
            at += 1;
        }
    }
    assert_eq!((at, got.len()), (12, 12));
    // The sampled two-VC stream, at the benchmark's seeds.
    let space = Space::new(2, 5, 2, abstract_cycles_2d_vc(2));
    for seed in [7, 11] {
        let got = sample_deadlock_free_2d_vc(2, 5, 1000, seed);
        assert_eq!(got, reference_sample(&space, 1000, seed), "seed {seed}");
    }
}

/// The paper's 65 536 = 4^8 space, every model of it, in the index order
/// of the exhaustive sweep: 68 are deadlock-free on a 5x5 mesh, in 12
/// orbits under the square's eight symmetries (VC labels kept) — this
/// repository's measurement, like the 9 orbits of the 3D space.
#[test]
#[cfg_attr(debug_assertions, ignore = "0.7 s in release; CI runs it there")]
fn the_two_vc_space_matches_the_per_model_build_exhaustively() {
    let space = Space::new(2, 5, 2, abstract_cycles_2d_vc(2));
    let skeleton = Skeleton::new(&space.topo, &space.vcs, &space.universe);
    let all: TurnSet = space.cycles.iter().flatten().copied().collect();
    let mut relation = skeleton.relation(&all);
    let at = |c: Channel| space.universe.iter().position(|&u| u == c).unwrap();
    let mut free = Vec::new();
    for combo in 0..1u128 << 16 {
        let digits = space.digits(combo);
        let prohibited = || space.cycles.iter().zip(&digits).map(|(c, &k)| c[k]);
        prohibited().for_each(|t| relation.set(at(t.from), at(t.to), false));
        let got = skeleton.is_acyclic(&mut relation);
        prohibited().for_each(|t| relation.set(at(t.from), at(t.to), true));
        assert_eq!(got, reference_is_free(&space, &digits), "model {combo}");
        if got {
            free.push(reference_allowed(&space, &digits));
        }
    }
    assert_eq!(free.len(), 68);
    assert_eq!(unique_turn_sets_up_to_symmetry(2, &free), 12);
    assert_eq!(sample_deadlock_free_2d_vc(2, 5, u64::MAX, 0), (65_536, 68));
}

// ---------------------------------------------------------------------
// Cycle search.
// ---------------------------------------------------------------------

/// The CSR kernel's witness for `g`, already compared with the
/// reference's.
fn witness(g: &[Vec<u32>]) -> Option<Vec<u32>> {
    let witness = csr::find_cycle(&cycle_ref::csr_of(g));
    assert_eq!(witness, cycle_ref::find_cycle(g), "{g:?}");
    witness
}

#[test]
fn cycle_search_matches_the_adjacency_list_reference() {
    // Empty graph, lone node, self-loop (a cycle of length 1).
    assert_eq!(witness(&[]), None);
    assert_eq!(witness(&[vec![]]), None);
    assert_eq!(witness(&[vec![0]]), Some(vec![0]));

    // Diamond DAG.
    assert_eq!(witness(&[vec![1, 2], vec![3], vec![3], vec![]]), None);

    // 0 -> 1 -> 2 -> 3 -> 1 plus a tail 4 -> 0: the witness closes.
    let g = vec![vec![1], vec![2], vec![3], vec![1], vec![0]];
    let cycle = witness(&g).expect("embedded cycle");
    assert_eq!(cycle.len(), 3);
    for w in cycle.windows(2) {
        assert!(g[w[0] as usize].contains(&w[1]));
    }
    assert!(g[*cycle.last().unwrap() as usize].contains(&cycle[0]));

    // A three-node cycle with a feeder and an isolated node; two
    // disjoint two-cycles (the first one found is reported).
    let knot = witness(&[vec![1], vec![2], vec![0], vec![2], vec![]]);
    assert_eq!(knot, Some(vec![0, 1, 2]));
    let pair = witness(&[vec![1], vec![0], vec![3], vec![2]]);
    assert_eq!(pair, Some(vec![0, 1]));

    // 100k-node path: recursion would overflow; iteration must not.
    let n = 100_000;
    let mut chain: Vec<Vec<u32>> = (0..n - 1).map(|i| vec![i as u32 + 1]).collect();
    chain.push(vec![]);
    assert_eq!(witness(&chain), None);
}
