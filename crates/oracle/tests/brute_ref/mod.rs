//! The brute searcher as it was before support counting: the greatest
//! fixed point by whole-bitset sweeps, `Vec<Vec<_>>` source groups,
//! coordinates decoded per channel and a `BTreeSet` insert per realized
//! class pair. Kept, instrumentation stripped, as the reference
//! `brute_differential.rs` holds `ebda_oracle::brute::search` equal to —
//! `sweeps` here is literally the number of passes the loop makes.

use ebda_cdg::topology::Topology;
use ebda_core::{Channel, Dimension, Direction, TurnSet};
use ebda_oracle::brute::{BruteChannel, BruteReport};

/// Enumerates the concrete channels of `topo` under the per-dimension VC
/// budget — walking nodes and ports directly rather than using the
/// topology's link list, so the enumeration is independent of `ebda-cdg`.
fn enumerate_channels(topo: &Topology, vcs: &[u8]) -> Vec<BruteChannel> {
    assert_eq!(vcs.len(), topo.dims(), "one VC count per dimension");
    let mut out = Vec::new();
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
    let channels = enumerate_channels(topo, vcs);
    let n = channels.len();
    let nu = universe.len();
    let uw = nu.div_ceil(64); // words per class bitmask

    // Class matches per concrete channel, evaluated at the source node —
    // one bitmask over the universe per channel, so the admissibility test
    // below is word-wise AND instead of nested set membership.
    let mut match_mask = vec![0u64; n * uw];
    for (i, c) in channels.iter().enumerate() {
        let coords = topo.coords(c.from);
        for (k, cl) in universe.iter().enumerate() {
            if cl.dim == c.dim && cl.dir == c.dir && cl.vc == c.vc && cl.class.contains(&coords) {
                match_mask[i * uw + k / 64] |= 1 << (k % 64);
            }
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

    // Channels grouped by source node, to find the wants of each hold.
    let mut by_source: Vec<Vec<usize>> = vec![Vec::new(); topo.node_count()];
    for (i, c) in channels.iter().enumerate() {
        by_source[c.from].push(i);
    }

    // All admissible (hold, want) pairs, in hold-major order: some matched
    // class of `hold` must be allowed to continue on some matched class of
    // `want`, i.e. some hold-class row of `allow` intersects `want`'s mask.
    let mut pair_hold: Vec<u32> = Vec::new();
    let mut pair_want: Vec<u32> = Vec::new();
    let mut class_pairs: std::collections::BTreeSet<(u16, u16)> = std::collections::BTreeSet::new();
    for hold in 0..n {
        let hm = &match_mask[hold * uw..(hold + 1) * uw];
        for &want in &by_source[channels[hold].to] {
            let wm = &match_mask[want * uw..(want + 1) * uw];
            let admissible = hm.iter().enumerate().any(|(wi, &hword)| {
                let mut bits = hword;
                while bits != 0 {
                    let ca = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let row = &allow[ca * uw..(ca + 1) * uw];
                    if row.iter().zip(wm).any(|(&r, &w)| r & w != 0) {
                        return true;
                    }
                }
                false
            });
            if admissible {
                pair_hold.push(hold as u32);
                pair_want.push(want as u32);
                // Record every class-level (hold, want) combination this
                // concrete pair realizes — the gfp_pair coverage family.
                // The class sets are tiny, so this second walk stays off
                // the admissibility fast path above.
                for (wi, &hword) in hm.iter().enumerate() {
                    let mut bits = hword;
                    while bits != 0 {
                        let ca = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let row = &allow[ca * uw..(ca + 1) * uw];
                        for (wj, (&r, &w)) in row.iter().zip(wm).enumerate() {
                            let mut both = r & w;
                            while both != 0 {
                                let cb = wj * 64 + both.trailing_zeros() as usize;
                                both &= both - 1;
                                class_pairs.insert((ca as u16, cb as u16));
                            }
                        }
                    }
                }
            }
        }
    }
    let pair_count = pair_hold.len();

    // Greatest fixed point: discard pairs whose wanted channel is not held
    // by any surviving pair, until a sweep removes nothing. Liveness is a
    // bitset over pairs; sweeps walk set bits in index order, so removals
    // cascade within a sweep exactly like the element-wise loop did.
    let pw = pair_count.div_ceil(64);
    let mut alive = vec![u64::MAX; pw];
    if !pair_count.is_multiple_of(64) {
        alive[pw - 1] = (1u64 << (pair_count % 64)) - 1;
    }
    let mut holds = vec![0u32; n]; // surviving pairs holding each channel
    for &h in &pair_hold {
        holds[h as usize] += 1;
    }
    let mut sweeps = 0usize;
    loop {
        sweeps += 1;
        let mut removed = false;
        for (w, word) in alive.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let i = w * 64 + b as usize;
                if holds[pair_want[i] as usize] == 0 {
                    *word &= !(1u64 << b);
                    holds[pair_hold[i] as usize] -= 1;
                    removed = true;
                }
            }
        }
        if !removed {
            break;
        }
    }
    let surviving: usize = alive.iter().map(|w| w.count_ones() as usize).sum();

    // Read a circular wait off the fixed point: follow want → hold links
    // (each wanted channel is held by a surviving pair, by construction)
    // until a channel repeats.
    let first_alive =
        (0..pw).find_map(|w| (alive[w] != 0).then(|| w * 64 + alive[w].trailing_zeros() as usize));
    let witness = first_alive.map(|p0| {
        // Pairs are hold-major, so each hold's pairs form one contiguous
        // run; CSR offsets replace the full-array scan per witness hop.
        let mut hold_start = vec![0u32; n + 1];
        for &h in &pair_hold {
            hold_start[h as usize + 1] += 1;
        }
        for i in 0..n {
            hold_start[i + 1] += hold_start[i];
        }
        let alive_bit = |i: usize| alive[i / 64] >> (i % 64) & 1 == 1;
        let next_of = |ch: usize| -> usize {
            (hold_start[ch] as usize..hold_start[ch + 1] as usize)
                .find(|&i| alive_bit(i))
                .map(|i| pair_want[i] as usize)
                .expect("fixed point: every surviving channel has a request")
        };
        let start = pair_hold[p0] as usize;
        let mut seen: Vec<usize> = vec![start];
        let mut cur = start;
        loop {
            cur = next_of(cur);
            if let Some(pos) = seen.iter().position(|&c| c == cur) {
                return seen[pos..].iter().map(|&i| channels[i]).collect();
            }
            seen.push(cur);
        }
    });

    BruteReport {
        channels: n,
        pairs: pair_count,
        surviving,
        sweeps,
        pair_classes: class_pairs.into_iter().collect(),
        witness,
    }
}
