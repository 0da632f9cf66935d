//! An exhaustive bounded deadlock searcher, independent of the CDG code.
//!
//! The searcher decides deadlock-freedom by reachability over *channel-wait
//! configurations* of a wormhole network: a configuration is a set of
//! blocked packets, each modelled as a `(hold, want)` pair of concrete
//! channels — the packet's wormhole occupies `hold` and its head has
//! requested `want`. A configuration is *self-supporting* when every wanted
//! channel is held by another blocked packet of the same configuration,
//! which is exactly the circular-wait condition of a wormhole deadlock.
//!
//! Starting from the set of **all** admissible pairs (every hop the routing
//! relation allows), [`search`] computes the greatest fixed point of the
//! blocking operator: it repeatedly discards pairs whose wanted channel is
//! not held by any surviving pair. The fixed point is the union of all
//! self-supporting configurations; it is nonempty iff some reachable
//! configuration deadlocks, and a witness circular wait can be read off by
//! following `want → hold` links until a channel repeats.
//!
//! The implementation deliberately shares **nothing** with `ebda-cdg`
//! beyond the topology it is asked about: it enumerates concrete channels
//! its own way (per node, not per link list), decodes coordinates by its
//! own arithmetic, represents waits as pairs (not adjacency lists) and
//! converges by fixed point (not by three-colour DFS). Agreement between
//! the two is therefore meaningful evidence, which is the whole point of
//! a differential oracle.
//!
//! The fixed point is reached by support counting — each channel knows
//! how many surviving pairs hold it, and the channel whose last holder is
//! discarded releases the pairs wanting it — so every pair is touched
//! once, not once per sweep. [`BruteReport::sweeps`] still reports the
//! number of passes the sweep formulation makes (see [`search`]'s body for
//! the rule); `tests/brute_differential.rs` holds every field equal to
//! that formulation, kept as `tests/brute_ref`.

use ebda_cdg::topology::{NodeId, Topology};
use ebda_core::{Channel, Dimension, Direction, TurnSet};
use std::fmt;

/// A concrete channel as the brute searcher sees it: one virtual channel of
/// one directed link. Intentionally a distinct type from
/// `ebda_cdg::ConcreteChannel` so the oracle never leans on CDG code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BruteChannel {
    /// Source node of the link.
    pub from: NodeId,
    /// Destination node of the link.
    pub to: NodeId,
    /// Dimension the link runs along.
    pub dim: Dimension,
    /// Direction of travel.
    pub dir: Direction,
    /// Virtual channel (1-based).
    pub vc: u8,
}

impl fmt::Display for BruteChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{} ({}→{})",
            self.dim, self.vc, self.dir, self.from, self.to
        )
    }
}

/// The outcome of a brute-force deadlock search.
#[derive(Debug, Clone)]
pub struct BruteReport {
    /// Number of concrete channels enumerated.
    pub channels: usize,
    /// Number of admissible `(hold, want)` pairs before pruning.
    pub pairs: usize,
    /// Pairs surviving in the greatest fixed point (0 = deadlock-free).
    pub surviving: usize,
    /// Pruning sweeps needed to converge.
    pub sweeps: usize,
    /// The distinct class-level `(hold, want)` combinations realized by
    /// at least one admissible concrete pair, as sorted index pairs
    /// into the search's universe — what campaigns feed the `gfp_pair`
    /// coverage family.
    pub pair_classes: Vec<(u16, u16)>,
    /// A circular wait read off the fixed point, or `None` when empty.
    pub witness: Option<Vec<BruteChannel>>,
}

impl BruteReport {
    /// Returns `true` when no self-supporting blocked configuration exists.
    pub fn is_deadlock_free(&self) -> bool {
        self.witness.is_none()
    }
}

impl fmt::Display for BruteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.witness {
            None => write!(
                f,
                "brute: deadlock-free ({} channels, {} wait pairs pruned in {} sweeps)",
                self.channels, self.pairs, self.sweeps
            ),
            Some(w) => {
                write!(f, "brute: DEADLOCK, circular wait of {}: ", w.len())?;
                for (i, c) in w.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
        }
    }
}

/// Enumerates the concrete channels of `topo` under the per-dimension VC
/// budget — walking nodes and ports directly rather than using the
/// topology's link list, so the enumeration is independent of `ebda-cdg`.
/// Node-major: the channels leaving one node are one index range.
fn enumerate_channels(topo: &Topology, vcs: &[u8]) -> Vec<BruteChannel> {
    assert_eq!(vcs.len(), topo.dims(), "one VC count per dimension");
    // Every node has at most two links per dimension.
    let per_node: usize = vcs.iter().map(|&v| 2 * v as usize).sum();
    let mut out = Vec::with_capacity(topo.node_count() * per_node);
    for node in 0..topo.node_count() {
        for (d, &dim_vcs) in vcs.iter().enumerate() {
            let dim = Dimension::new(d as u8);
            for dir in [Direction::Plus, Direction::Minus] {
                if let Some(to) = topo.neighbor(node, dim, dir) {
                    for vc in 1..=dim_vcs {
                        out.push(BruteChannel {
                            from: node,
                            to,
                            dim,
                            dir,
                            vc,
                        });
                    }
                }
            }
        }
    }
    out
}

/// The indices of the set bits of a bit row, ascending.
fn set_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
}

/// Decides deadlock-freedom of a class-level turn set on a concrete
/// topology by greatest-fixed-point search over channel-wait
/// configurations (see the module docs for the model).
///
/// The admissibility of a `(hold, want)` pair mirrors the routing
/// semantics exactly: the links must be adjacent (`hold.to == want.from`),
/// each concrete channel must match some class of `universe` (dimension,
/// direction and VC equal; parity/coordinate restriction evaluated at the
/// link's **source** node), and `turns` must allow some matched class of
/// `hold` to continue on some matched class of `want` (going straight on
/// the same class is always allowed).
///
/// # Panics
///
/// Panics if `vcs.len()` differs from the topology's dimension count.
pub fn search(topo: &Topology, vcs: &[u8], universe: &[Channel], turns: &TurnSet) -> BruteReport {
    search_rounds(topo, vcs, universe, turns, u32::MAX)
}

/// [`search`] with the pruning cut off after `rounds` rounds: a pair the
/// fixed point would discard in a later round is kept alive. Anything
/// but `u32::MAX` is a broken searcher
/// ([`crate::verdict::Mutation::BruteStopsAfterFirstRound`]).
pub(crate) fn search_rounds(
    topo: &Topology,
    vcs: &[u8],
    universe: &[Channel],
    turns: &TurnSet,
    rounds: u32,
) -> BruteReport {
    let channels = enumerate_channels(topo, vcs);
    let n = channels.len();
    let nu = universe.len();
    let uw = nu.div_ceil(64); // words per class bitmask

    // The channels leaving node `v` are `source_start[v]..source_start[v + 1]`.
    let mut source_start = vec![0u32; topo.node_count() + 1];
    for c in &channels {
        source_start[c.from + 1] += 1;
    }
    for v in 0..topo.node_count() {
        source_start[v + 1] += source_start[v];
    }

    // Class matches per concrete channel, evaluated at the source node —
    // one bitmask over the universe per channel, so the admissibility test
    // below is word-wise AND instead of nested set membership — and their
    // union per node: the classes some channel leaving the node matches.
    // Node ids are row-major, so the coordinates advance like an odometer:
    // decoded once per node, by this module's own arithmetic.
    let mut match_mask = vec![0u64; n * uw];
    let mut leaving = vec![0u64; topo.node_count() * uw];
    let mut coords = vec![0i64; topo.dims()];
    for node in 0..topo.node_count() {
        for i in source_start[node] as usize..source_start[node + 1] as usize {
            let c = &channels[i];
            for (k, cl) in universe.iter().enumerate() {
                if cl.dim == c.dim && cl.dir == c.dir && cl.vc == c.vc && cl.class.contains(&coords)
                {
                    match_mask[i * uw + k / 64] |= 1 << (k % 64);
                    leaving[node * uw + k / 64] |= 1 << (k % 64);
                }
            }
        }
        for (coord, &radix) in coords.iter_mut().zip(topo.radix()).rev() {
            *coord += 1;
            if (*coord as usize) < radix {
                break;
            }
            *coord = 0;
        }
    }

    // The turn relation flattened to a class × class bit matrix: row `a`
    // is the set of classes `a` may continue on (straight included). The
    // O(nu²) tree lookups happen once here, not once per channel pair.
    let mut allow = vec![0u64; nu * uw];
    for a in 0..nu {
        for b in 0..nu {
            if turns.allows(universe[a], universe[b]) {
                allow[a * uw + b / 64] |= 1 << (b % 64);
            }
        }
    }

    // All admissible (hold, want) pairs, in hold-major order — the pairs
    // holding channel `c` are `hold_start[c]..hold_start[c + 1]`: some
    // matched class of `hold` must be allowed to continue on some matched
    // class of `want`, i.e. `reach`, the union of the hold classes' rows of
    // `allow`, intersects `want`'s mask. Each row's intersection with the
    // masks of the channels leaving `hold.to` is the class-level (hold,
    // want) combinations the concrete pairs realize (the gfp_pair coverage
    // family), OR-ed into row `hold class` of `realized`.
    let mut pair_hold: Vec<u32> = Vec::new();
    let mut pair_want: Vec<u32> = Vec::new();
    let mut hold_start: Vec<u32> = Vec::with_capacity(n + 1);
    let mut realized = vec![0u64; nu * uw];
    let mut reach = vec![0u64; uw];
    for hold in 0..n {
        hold_start.push(pair_hold.len() as u32);
        let to = channels[hold].to;
        reach.fill(0);
        for ca in set_bits(&match_mask[hold * uw..(hold + 1) * uw]) {
            for w in 0..uw {
                let row = allow[ca * uw + w];
                reach[w] |= row;
                realized[ca * uw + w] |= row & leaving[to * uw + w];
            }
        }
        for want in source_start[to]..source_start[to + 1] {
            let wm = &match_mask[want as usize * uw..(want as usize + 1) * uw];
            if reach.iter().zip(wm).any(|(&r, &w)| r & w != 0) {
                pair_hold.push(hold as u32);
                pair_want.push(want);
            }
        }
    }
    hold_start.push(pair_hold.len() as u32);
    let pair_count = pair_hold.len();
    let pair_classes = (0..nu)
        .flat_map(|ca| {
            set_bits(&realized[ca * uw..(ca + 1) * uw]).map(move |cb| (ca as u16, cb as u16))
        })
        .collect();

    // The pairs wanting channel `c` are `by_want[want_start[c]..want_start[c + 1]]`
    // (a counting sort, filled from the back so the ends become the starts).
    let mut want_start = vec![0u32; n + 1];
    for &w in &pair_want {
        want_start[w as usize] += 1;
    }
    for c in 0..n {
        want_start[c + 1] += want_start[c];
    }
    let mut by_want = vec![0u32; pair_count];
    for (j, &w) in pair_want.iter().enumerate().rev() {
        want_start[w as usize] -= 1;
        by_want[want_start[w as usize] as usize] = j as u32;
    }

    // Greatest fixed point by support counting: `holders[c]` surviving
    // pairs hold channel `c`; the channel whose last holder dies releases,
    // once, the pairs wanting it — every pair is discarded at most once.
    //
    // `sweeps` keeps the meaning it has in the sweep formulation (walk the
    // surviving pairs in index order, discard a pair whose wanted channel
    // nobody holds any more, repeat until a sweep discards nothing) by
    // carrying that formulation's clock: a pair dies at `(round, index)`;
    // a channel runs out of holders at the latest death among them, kept
    // in `dry` as `round << 32 | index + 1` — round 1, before every index,
    // if nobody ever held it; and a pair wanting it dies in that same
    // round when the sweep reaches it after that index, one round later
    // otherwise.
    let mut holders: Vec<u32> = hold_start.windows(2).map(|w| w[1] - w[0]).collect();
    let mut dry = vec![1u64 << 32; n];
    let mut death = vec![0u32; pair_count]; // round a pair dies in; 0 = survives
    let mut released: Vec<u32> = (0..n as u32)
        .filter(|&c| holders[c as usize] == 0)
        .collect();
    let mut last_round = 0u32;
    while let Some(c) = released.pop() {
        let (round, after) = ((dry[c as usize] >> 32) as u32, dry[c as usize] as u32);
        for &j in &by_want[want_start[c as usize] as usize..want_start[c as usize + 1] as usize] {
            let dies = round + u32::from(j < after);
            if dies > rounds {
                continue;
            }
            death[j as usize] = dies;
            last_round = last_round.max(dies);
            let hold = pair_hold[j as usize] as usize;
            dry[hold] = dry[hold].max(u64::from(dies) << 32 | u64::from(j + 1));
            holders[hold] -= 1;
            if holders[hold] == 0 {
                released.push(hold as u32);
            }
        }
    }
    // The sweep that discards nothing is counted too. Every search
    // charges its work to the evaluation's brute phase, whoever asked
    // (a replay or a shrink predicate too).
    let sweeps = 1 + last_round as usize;
    ebda_obs::prof::work("oracle/evaluate/brute", "gfp_sweeps", sweeps as u64);
    ebda_obs::prof::work("oracle/evaluate/brute", "wait_pairs", pair_count as u64);
    let surviving = death.iter().filter(|&&round| round == 0).count();

    // Read a circular wait off the fixed point: follow want → hold links
    // (each wanted channel is held by a surviving pair, by construction)
    // until a channel repeats.
    let witness = death.iter().position(|&round| round == 0).map(|p0| {
        let next_of = |ch: usize| {
            (hold_start[ch] as usize..hold_start[ch + 1] as usize)
                .find(|&i| death[i] == 0)
                .map(|i| pair_want[i] as usize)
        };
        let mut cur = pair_hold[p0] as usize;
        let mut seen: Vec<usize> = vec![cur];
        // A search cut short leaves pairs waiting on a channel nobody
        // holds; the chain so far is all the witness it can give.
        while let Some(next) = next_of(cur) {
            if let Some(pos) = seen.iter().position(|&c| c == next) {
                seen.drain(..pos);
                break;
            }
            seen.push(next);
            cur = next;
        }
        seen.iter().map(|&i| channels[i]).collect()
    });

    BruteReport {
        channels: n,
        pairs: pair_count,
        surviving,
        sweeps,
        pair_classes,
        witness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_cdg::dally::{design_universe, infer_vcs};
    use ebda_core::{catalog, extract_turns, parse_channels, Turn};

    #[test]
    fn channel_enumeration_matches_link_math() {
        let topo = Topology::mesh(&[3, 3]);
        assert_eq!(enumerate_channels(&topo, &[1, 1]).len(), 24);
        assert_eq!(enumerate_channels(&topo, &[2, 1]).len(), 36);
        let torus = Topology::torus(&[4, 4]);
        assert_eq!(enumerate_channels(&torus, &[1, 1]).len(), 64);
    }

    #[test]
    fn all_turns_allowed_deadlocks_on_meshes() {
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let mut turns = TurnSet::new();
        for &a in &universe {
            for &b in &universe {
                if a != b {
                    turns.insert(Turn::new(a, b));
                }
            }
        }
        let report = search(&Topology::mesh(&[3, 3]), &[1, 1], &universe, &turns);
        assert!(!report.is_deadlock_free());
        let witness = report.witness.unwrap();
        assert!(witness.len() >= 2);
        // The witness is a genuine closed chain of adjacent links.
        for i in 0..witness.len() {
            assert_eq!(witness[i].to, witness[(i + 1) % witness.len()].from);
        }
    }

    #[test]
    fn straight_rings_deadlock_on_torus_but_not_mesh() {
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let turns = TurnSet::new(); // straight-through only
        let mesh = search(&Topology::mesh(&[4, 4]), &[1, 1], &universe, &turns);
        assert!(mesh.is_deadlock_free());
        assert_eq!(mesh.surviving, 0);
        let torus = search(&Topology::torus(&[4, 4]), &[1, 1], &universe, &turns);
        assert!(!torus.is_deadlock_free());
    }

    #[test]
    fn dateline_classes_break_the_torus_ring() {
        // The coordinate-restricted dateline design is free on tori; the
        // class-unrestricted dimension-order design is not. The brute
        // searcher must see both, like the CDG does.
        let radix = vec![4usize, 4];
        let torus = Topology::torus(&radix);
        let seq = catalog::torus_dateline(&radix);
        let universe = design_universe(&seq);
        let vcs = infer_vcs(&universe, 2);
        let turns = extract_turns(&seq).unwrap().into_turn_set();
        assert!(search(&torus, &vcs, &universe, &turns).is_deadlock_free());

        let plain = ebda_core::PartitionSeq::parse("X+ X- | Y+ Y-").unwrap();
        let u2 = design_universe(&plain);
        let t2 = extract_turns(&plain).unwrap().into_turn_set();
        assert!(!search(&torus, &[1, 1], &u2, &t2).is_deadlock_free());
    }

    #[test]
    fn report_internals_match_the_reference_implementation() {
        // Pinned against the original Vec/BTreeSet implementation: the
        // bitset rewrite must reproduce pair counts, fixed-point sizes and
        // sweep counts exactly, not just the free/deadlocked verdict.
        let u = parse_channels("X+ X- Y+ Y-").unwrap();
        let mut all = TurnSet::new();
        for &a in &u {
            for &b in &u {
                if a != b {
                    all.insert(Turn::new(a, b));
                }
            }
        }
        let r = search(&Topology::mesh(&[3, 3]), &[1, 1], &u, &all);
        assert_eq!(
            (r.channels, r.pairs, r.surviving, r.sweeps),
            (24, 68, 68, 1)
        );
        assert_eq!(r.witness.unwrap().len(), 2);

        let r = search(&Topology::torus(&[4, 4]), &[1, 1], &u, &TurnSet::new());
        assert_eq!(
            (r.channels, r.pairs, r.surviving, r.sweeps),
            (64, 64, 64, 1)
        );
        assert_eq!(r.witness.unwrap().len(), 4);

        let radix = vec![4usize, 4];
        let seq = catalog::torus_dateline(&radix);
        let universe = design_universe(&seq);
        let vcs = infer_vcs(&universe, 2);
        let turns = extract_turns(&seq).unwrap().into_turn_set();
        let r = search(&Topology::torus(&radix), &vcs, &universe, &turns);
        assert_eq!(
            (r.channels, r.pairs, r.surviving, r.sweeps),
            (128, 428, 0, 14)
        );
        assert!(r.is_deadlock_free());
    }

    #[test]
    fn pair_classes_enumerate_realized_class_combinations() {
        // All-turns-allowed on a mesh: every (a, b) class pair with an
        // adjacent concrete realization appears; straight-through (a, a)
        // included. Sorted and deduplicated by construction.
        let u = parse_channels("X+ X- Y+ Y-").unwrap();
        let mut all = TurnSet::new();
        for &a in &u {
            for &b in &u {
                if a != b {
                    all.insert(Turn::new(a, b));
                }
            }
        }
        let r = search(&Topology::mesh(&[3, 3]), &[1, 1], &u, &all);
        assert!(r.pair_classes.contains(&(0, 0)), "straight-through X+");
        assert!(
            r.pair_classes.windows(2).all(|w| w[0] < w[1]),
            "sorted and deduplicated: {:?}",
            r.pair_classes
        );
        // A hairpin X+ -> X- is adjacent on a mesh and allowed here.
        assert!(r.pair_classes.contains(&(0, 1)), "{:?}", r.pair_classes);

        // Straight-through only: exactly the diagonal pairs survive the
        // admissibility filter.
        let straight = search(&Topology::torus(&[4, 4]), &[1, 1], &u, &TurnSet::new());
        assert_eq!(straight.pair_classes, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn report_display_covers_both_outcomes() {
        let universe = parse_channels("X+ X-").unwrap();
        let turns = TurnSet::new();
        let free = search(&Topology::mesh(&[3, 1]), &[1, 1], &universe, &turns);
        assert!(free.to_string().contains("deadlock-free"));
        let stuck = search(
            &Topology::mesh(&[3, 1]).with_wrap(&[true, false]),
            &[1, 1],
            &universe,
            &turns,
        );
        assert!(stuck.to_string().contains("DEADLOCK"));
    }
}
