//! EbDa as a *verification* procedure: given an arbitrary turn set, try to
//! reconstruct a partition sequence whose Theorem 1–3 extraction allows
//! every given turn. Such a sequence is a *certificate* of deadlock
//! freedom — the paper's "algorithms can be verified on their freedom from
//! deadlock" made executable.
//!
//! The reconstruction is direct, not a search:
//!
//! 1. channels connected by *mutual* turns must share a partition (a
//!    transition between distinct partitions is one-way by Theorem 3), so
//!    the strongly connected components of the turn relation are the
//!    candidate partitions;
//! 2. each component must satisfy Theorem 1 (at most one complete D-pair)
//!    and its same-dimension turns must be linearizable (Theorem 2's
//!    ascending numbering);
//! 3. the components must topologically order by the remaining one-way
//!    turns (Theorem 3's consecutive order).
//!
//! Failure does **not** prove deadlock — EbDa certificates are sufficient,
//! not necessary — but on the classic 2D/4-channel space the procedure is
//! exact: it certifies precisely the deadlock-free turn-model combinations
//! (see the tests and `ebda-bench --bin scalability`).
//!
//! **Scope.** Certificates assume mesh-like monotone progress within a
//! channel class: going straight on one class never returns to the same
//! physical link. Wrap-around rings violate that, so on tori a class-level
//! certificate alone is not sufficient — pair it with an exact check, as
//! `ebda_routing::certify_relation` does.

use crate::channel::Channel;
use crate::extract::extract_turns;
use crate::partition::Partition;
use crate::sequence::PartitionSeq;
use crate::turn::TurnSet;
use std::collections::BTreeMap;

/// Why certification failed. Carried by [`certify`]'s error value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyFailure {
    /// A would-be partition (an SCC of the turn relation) covers more than
    /// one complete D-pair, violating Theorem 1.
    TooManyPairs {
        /// Printable channel list of the offending component.
        component: Vec<String>,
    },
    /// Same-dimension turns inside a component are cyclic, so no Theorem 2
    /// numbering can realize them.
    UnorderableChannels {
        /// Printable channel list of the offending dimension group.
        channels: Vec<String>,
    },
}

impl std::fmt::Display for CertifyFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyFailure::TooManyPairs { component } => write!(
                f,
                "component {{{}}} needs two complete D-pairs in one partition",
                component.join(" ")
            ),
            CertifyFailure::UnorderableChannels { channels } => write!(
                f,
                "same-dimension turns among {{{}}} cannot be linearized",
                channels.join(" ")
            ),
        }
    }
}

/// Attempts to certify a turn set as deadlock-free by reconstructing an
/// EbDa partition sequence whose extraction is a superset of it.
///
/// `universe` lists every channel class the routing uses (channels that
/// appear in no turn still need a home partition).
///
/// ```
/// use ebda_core::certify::certify;
/// use ebda_core::{extract_turns, catalog, parse_channels};
/// // Certify west-first from its raw turn set alone.
/// let ex = extract_turns(&catalog::p3_west_first())?;
/// let universe = parse_channels("X+ X- Y+ Y-")?;
/// let cert = certify(&universe, ex.turn_set()).expect("west-first is certifiable");
/// assert!(cert.validate().is_ok());
/// # Ok::<(), ebda_core::EbdaError>(())
/// ```
///
/// # Errors
///
/// Returns the first structural obstruction found. A failure means *EbDa
/// cannot certify this relation as-is* (it may still be deadlock-free for
/// other reasons, or become certifiable with finer channel classes — the
/// Odd-Even model needs its parity split, for example).
pub fn certify(
    universe: &[Channel],
    turns: &TurnSet,
) -> std::result::Result<PartitionSeq, CertifyFailure> {
    // Index the universe (including any turn endpoints not listed, in
    // the order the turns name them). `known` is sorted by channel and
    // holds the index a channel is looked up as: a repeated universe
    // entry's last listing.
    let mut channels: Vec<Channel> = universe.to_vec();
    let mut known: Vec<(Channel, usize)> = channels.iter().copied().zip(0..).collect();
    known.sort_unstable_by_key(|&(c, i)| (c, std::cmp::Reverse(i)));
    known.dedup_by_key(|&mut (c, _)| c);
    let mut index = |c: Channel| match known.binary_search_by_key(&c, |&(k, _)| k) {
        Ok(at) => known[at].1,
        Err(at) => {
            known.insert(at, (c, channels.len()));
            channels.push(c);
            channels.len() - 1
        }
    };
    let edges: Vec<(usize, usize)> = turns.iter().map(|t| (index(t.from), index(t.to))).collect();
    let n = channels.len();

    // SCCs of the turn relation = forced partitions.
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in &edges {
        adj[a].push(b as u32);
    }
    let comp_of = scc_ids(&adj);
    let comp_count = comp_of.iter().map(|&c| c + 1).max().unwrap_or(0);

    // Build each component; check Theorem 1 and Theorem 2 orderability.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); comp_count];
    let mut local = vec![0u32; n];
    for (i, &c) in comp_of.iter().enumerate() {
        local[i] = members[c].len() as u32;
        members[c].push(i);
    }
    // From here on a row keeps the turns inside its component, each as
    // the target's position in the component.
    for (i, row) in adj.iter_mut().enumerate() {
        row.retain(|&j| comp_of[j as usize] == comp_of[i]);
        row.iter_mut().for_each(|j| *j = local[*j as usize]);
    }
    let mut parts: Vec<Partition> = Vec::with_capacity(comp_count);
    for comp in &members {
        let chans: Vec<Channel> = comp.iter().map(|&i| channels[i]).collect();
        let ordered = order_component(&chans, comp, &adj)?;
        let part = Partition::from_channels(ordered).map_err(|_| CertifyFailure::TooManyPairs {
            component: chans.iter().map(|c| c.to_string()).collect(),
        })?;
        if !part.theorem1_holds() {
            return Err(CertifyFailure::TooManyPairs {
                component: chans.iter().map(|c| c.to_string()).collect(),
            });
        }
        parts.push(part);
    }

    // Order the components by the one-way cross turns (always acyclic:
    // SCC condensation is a DAG).
    let mut comp_adj = vec![Vec::new(); comp_count];
    for &(a, b) in &edges {
        let (a, b) = (comp_of[a], comp_of[b]);
        if a != b && !comp_adj[a].contains(&(b as u32)) {
            comp_adj[a].push(b as u32);
        }
    }
    let order = topological_order(&comp_adj).expect("SCC condensation is acyclic");
    let seq = PartitionSeq::from_partitions(order.into_iter().map(|c| parts[c].clone()).collect());
    debug_assert!(seq.validate().is_ok(), "certificate must be valid");
    Ok(seq)
}

/// Certifies and cross-checks: the certificate's extraction must allow
/// every input turn. Returns the certificate and the extraction's turn
/// surplus (allowed-but-unused turns).
///
/// # Errors
///
/// Propagates [`certify`] failures; returns an internal-consistency error if the
/// certificate fails to cover the input (which would be a bug).
pub fn certify_checked(
    universe: &[Channel],
    turns: &TurnSet,
) -> std::result::Result<(PartitionSeq, TurnSet), CertifyFailure> {
    let seq = certify(universe, turns)?;
    let extraction = extract_turns(&seq).expect("certificates are valid designs");
    let missing: Vec<String> = turns
        .iter()
        .filter(|t| !extraction.turn_set().contains(*t))
        .map(|t| t.to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "internal error: certificate does not cover turns {missing:?}"
    );
    let surplus = extraction.turn_set().difference(turns);
    Ok((seq, surplus))
}

/// Independently re-checks a partition-sequence certificate against the
/// turn set it claims to cover, walking every theorem obligation directly
/// instead of re-running [`certify`]. This is the checker half of the
/// prover/checker split: the walk below shares no code with the
/// reconstruction above (no SCCs, no Kahn ordering), so a bug in the
/// prover cannot silently validate its own output.
///
/// Obligations walked, in order:
///
/// 1. **coverage** — every universe channel and every turn endpoint sits
///    in exactly one partition;
/// 2. **disjointness** (Definition 6) — no channel of one partition
///    overlaps a channel of another;
/// 3. **Theorem 1** — each partition covers at most one complete D-pair;
/// 4. **Theorem 2** — a same-dimension turn inside a partition whose
///    dimension has a complete pair must move *forward* in the
///    partition's channel numbering;
/// 5. **Theorem 3** — a turn crossing partitions must land in a *later*
///    partition.
///
/// Returns the number of obligations checked (useful for reporting that
/// the walk actually covered something).
///
/// # Errors
///
/// Returns a human-readable description of the first violated obligation.
pub fn check_certificate(
    seq: &PartitionSeq,
    universe: &[Channel],
    turns: &TurnSet,
) -> std::result::Result<usize, String> {
    let mut obligations = 0usize;

    // 1. Coverage: channel -> (partition index, position within it).
    let mut home: BTreeMap<Channel, (usize, usize)> = BTreeMap::new();
    for (pi, part) in seq.partitions().iter().enumerate() {
        for (ci, &c) in part.channels().iter().enumerate() {
            if home.insert(c, (pi, ci)).is_some() {
                return Err(format!("channel {c} appears in more than one partition"));
            }
        }
    }
    for &c in universe {
        obligations += 1;
        if !home.contains_key(&c) {
            return Err(format!(
                "universe channel {c} is not covered by any partition"
            ));
        }
    }
    for t in turns.iter() {
        for c in [t.from, t.to] {
            obligations += 1;
            if !home.contains_key(&c) {
                return Err(format!("turn endpoint {c} is not covered by any partition"));
            }
        }
    }

    // 2. Pairwise disjointness (class-level overlap, not just equality).
    let parts = seq.partitions();
    for i in 0..parts.len() {
        for j in i + 1..parts.len() {
            obligations += 1;
            if let Some((a, b)) = parts[i].shared_channel(&parts[j]) {
                return Err(format!(
                    "partitions {} and {} overlap on {a} / {b}",
                    i + 1,
                    j + 1
                ));
            }
        }
    }

    // 3. Theorem 1 in every partition.
    for (pi, part) in parts.iter().enumerate() {
        obligations += 1;
        let dims = part.complete_pair_dims();
        if dims.len() > 1 {
            return Err(format!(
                "partition {} covers {} complete D-pairs; Theorem 1 allows at most one",
                pi + 1,
                dims.len()
            ));
        }
    }

    // 4 & 5. Every turn is allowed by the sequence.
    for t in turns.iter() {
        let (pa, ia) = home[&t.from];
        let (pb, ib) = home[&t.to];
        if pa == pb {
            // Within a partition 90° turns are free; same-dimension turns
            // obey the ascending Theorem 2 numbering when the dimension
            // has a complete pair (elsewhere the corollary frees them).
            if t.from.dim == t.to.dim && parts[pa].complete_pair_dims().contains(&t.from.dim) {
                obligations += 1;
                if ia >= ib {
                    return Err(format!(
                        "turn {t} moves against the Theorem 2 numbering of partition {}",
                        pa + 1
                    ));
                }
            }
        } else {
            obligations += 1;
            if pa > pb {
                return Err(format!(
                    "turn {t} crosses from partition {} back to {}, violating Theorem 3",
                    pa + 1,
                    pb + 1
                ));
            }
        }
    }
    Ok(obligations)
}

/// Produces a channel order for one component realizing its
/// same-dimension turns as ascending transitions. `chans[i]` is channel
/// `members[i]`, and `inner[members[i]]` lists the positions in `chans`
/// its turns lead to.
fn order_component(
    chans: &[Channel],
    members: &[usize],
    inner: &[Vec<u32>],
) -> std::result::Result<Vec<Channel>, CertifyFailure> {
    // Ordering constraints only bind in dimensions with a complete pair:
    // elsewhere the corollary of Theorem 2 grants every I-turn, mutual
    // ones included.
    let paired = |c: Channel| {
        let has = |dir| chans.iter().any(|o| o.dim == c.dim && o.dir == dir);
        has(crate::channel::Direction::Plus) && has(crate::channel::Direction::Minus)
    };
    let mut adj = vec![Vec::new(); chans.len()];
    for (i, &a) in chans.iter().enumerate() {
        if paired(a) {
            let targets = inner[members[i]].iter().copied();
            adj[i].extend(targets.filter(|&j| chans[j as usize].dim == a.dim));
            // Kahn's order depends on the row order: ascending positions.
            adj[i].sort_unstable();
        }
    }
    match topological_order(&adj) {
        Some(order) => Ok(order.into_iter().map(|i| chans[i]).collect()),
        None => Err(CertifyFailure::UnorderableChannels {
            channels: chans.iter().map(|c| c.to_string()).collect(),
        }),
    }
}

/// Kahn topological order; `None` when cyclic.
fn topological_order(adj: &[Vec<u32>]) -> Option<Vec<usize>> {
    let n = adj.len();
    let mut indeg = vec![0usize; n];
    for out in adj {
        for &b in out {
            indeg[b as usize] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        order.push(v);
        for &b in &adj[v] {
            indeg[b as usize] -= 1;
            if indeg[b as usize] == 0 {
                queue.push(b as usize);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Tarjan SCC returning a component id per node, ids numbered in reverse
/// topological order of discovery (we renumber to appearance order).
fn scc_ids(adj: &[Vec<u32>]) -> Vec<usize> {
    let n = adj.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next = 0u32;
    let mut comp = vec![usize::MAX; n];
    let mut comp_count = 0usize;
    let mut work: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if index[start as usize] != u32::MAX {
            continue;
        }
        work.push((start, 0));
        index[start as usize] = next;
        low[start as usize] = next;
        next += 1;
        stack.push(start);
        on_stack[start as usize] = true;
        while let Some(&mut (node, ref mut cursor)) = work.last_mut() {
            let succs = &adj[node as usize];
            if *cursor < succs.len() {
                let s = succs[*cursor];
                *cursor += 1;
                if index[s as usize] == u32::MAX {
                    index[s as usize] = next;
                    low[s as usize] = next;
                    next += 1;
                    stack.push(s);
                    on_stack[s as usize] = true;
                    work.push((s, 0));
                } else if on_stack[s as usize] {
                    low[node as usize] = low[node as usize].min(index[s as usize]);
                }
            } else {
                work.pop();
                if let Some(&(p, _)) = work.last() {
                    low[p as usize] = low[p as usize].min(low[node as usize]);
                }
                if low[node as usize] == index[node as usize] {
                    loop {
                        let v = stack.pop().expect("scc stack underflow");
                        on_stack[v as usize] = false;
                        comp[v as usize] = comp_count;
                        if v == node {
                            break;
                        }
                    }
                    comp_count += 1;
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::channel::parse_channels;
    use crate::turn::Turn;

    fn design_turns(seq: &PartitionSeq) -> (Vec<Channel>, TurnSet) {
        let universe = seq.channels();
        let ex = extract_turns(seq).unwrap();
        (universe, ex.into_turn_set())
    }

    #[test]
    fn certifies_every_catalog_design_from_its_own_turns() {
        for (name, seq) in crate::designs::all_designs() {
            let (universe, turns) = design_turns(&seq);
            let (cert, _surplus) =
                certify_checked(&universe, &turns).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(cert.validate().is_ok(), "{name} certificate invalid");
        }
    }

    #[test]
    fn certificate_covers_and_orders_north_last() {
        let (universe, turns) = design_turns(&catalog::north_last());
        let cert = certify(&universe, &turns).unwrap();
        // North-last's mutual turns force {X+, X-, Y-} together with Y+
        // after them.
        assert_eq!(cert.len(), 2);
        assert_eq!(cert.partitions()[0].len(), 3);
        assert_eq!(cert.partitions()[1].len(), 1);
    }

    #[test]
    fn rejects_the_all_turns_relation() {
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let mut turns = TurnSet::new();
        for &a in &universe {
            for &b in &universe {
                if a != b && a.dim != b.dim {
                    turns.insert(Turn::new(a, b));
                }
            }
        }
        let err = certify(&universe, &turns).unwrap_err();
        assert!(matches!(err, CertifyFailure::TooManyPairs { .. }));
    }

    #[test]
    fn rejects_cyclic_same_dimension_turns() {
        let universe = parse_channels("X1+ X2+ X1- Y1+").unwrap();
        let mut turns = TurnSet::new();
        // Mutual I-turns in a dimension *with* a complete pair: X1+ <-> X2+
        // plus the pair X1+/X1- in the same component via mutual U-turns.
        turns.insert(Turn::new(universe[0], universe[1]));
        turns.insert(Turn::new(universe[1], universe[0]));
        turns.insert(Turn::new(universe[0], universe[2]));
        turns.insert(Turn::new(universe[2], universe[0]));
        let err = certify(&universe, &turns).unwrap_err();
        assert!(
            matches!(err, CertifyFailure::UnorderableChannels { .. }),
            "{err}"
        );
    }

    #[test]
    fn parity_classes_recover_certifiability() {
        // The Odd-Even turn budget on *plain* channels is not certifiable:
        // the mutual turns weld all four directions into one two-pair
        // component. The same algorithm expressed with the paper's parity
        // classes certifies — finer channel classes are the escape hatch.
        let plain = parse_channels("X+ X- Y+ Y-").unwrap();
        let mut plain_turns = TurnSet::new();
        // Collapse Odd-Even's column-split turns onto plain channels:
        // WN, WS, NW, SW, EN, ES, NE, SE all become allowed somewhere.
        for (a, b) in [
            (1usize, 2),
            (1, 3),
            (2, 1),
            (3, 1),
            (0, 2),
            (0, 3),
            (2, 0),
            (3, 0),
        ] {
            plain_turns.insert(Turn::new(plain[a], plain[b]));
        }
        assert!(certify(&plain, &plain_turns).is_err());

        let (universe, turns) = design_turns(&catalog::odd_even());
        let cert = certify(&universe, &turns).unwrap();
        assert_eq!(cert.len(), 2, "odd-even certificate has two partitions");
    }

    #[test]
    fn channels_without_turns_get_singleton_partitions() {
        let universe = parse_channels("X+ X- Y+ Y-").unwrap();
        let turns = TurnSet::new(); // no turns at all: still certifiable
        let cert = certify(&universe, &turns).unwrap();
        assert_eq!(cert.len(), 4);
        assert!(cert.validate().is_ok());
    }

    #[test]
    fn checker_accepts_every_catalog_certificate() {
        for (name, seq) in crate::designs::all_designs() {
            let (universe, turns) = design_turns(&seq);
            let cert = certify(&universe, &turns).unwrap_or_else(|e| panic!("{name}: {e}"));
            let obligations = check_certificate(&cert, &universe, &turns)
                .unwrap_or_else(|e| panic!("{name}: checker rejected certificate: {e}"));
            assert!(obligations > 0, "{name}: checker walked no obligations");
        }
    }

    #[test]
    fn checker_rejects_tampered_certificates() {
        let (universe, turns) = design_turns(&catalog::north_last());
        let cert = certify(&universe, &turns).unwrap();

        // Reversing the partition order flips cross-partition turns
        // backwards (Theorem 3).
        let reversed = cert.permuted(&[1, 0]);
        let err = check_certificate(&reversed, &universe, &turns).unwrap_err();
        assert!(err.contains("Theorem 3"), "{err}");

        // Dropping a partition leaves turn endpoints homeless.
        let truncated = PartitionSeq::from_partitions(cert.partitions()[..1].to_vec());
        let err = check_certificate(&truncated, &universe, &turns).unwrap_err();
        assert!(err.contains("not covered"), "{err}");

        // Welding all four directions into one partition violates Theorem 1.
        let welded =
            PartitionSeq::from_partitions(vec![
                Partition::from_channels(universe.iter().copied()).unwrap()
            ]);
        let err = check_certificate(&welded, &universe, &turns).unwrap_err();
        assert!(err.contains("Theorem 1"), "{err}");
    }

    #[test]
    fn checker_rejects_reversed_theorem2_numbering() {
        // X1+ -> X2+ is an I-turn; with the complete X pair present the
        // partition numbering must realize it ascending.
        let universe = parse_channels("X1+ X2+ X1-").unwrap();
        let mut turns = TurnSet::new();
        turns.insert(Turn::new(universe[0], universe[1]));
        let good = PartitionSeq::from_partitions(vec![Partition::parse("X1+ X2+ X1-").unwrap()]);
        assert!(check_certificate(&good, &universe, &turns).is_ok());
        let bad = PartitionSeq::from_partitions(vec![Partition::parse("X2+ X1+ X1-").unwrap()]);
        let err = check_certificate(&bad, &universe, &turns).unwrap_err();
        assert!(err.contains("Theorem 2"), "{err}");
    }

    #[test]
    fn surplus_is_reported() {
        // Certifying XY's 4 turns yields a certificate that may allow
        // more (transitions grant extras); the surplus must be disjoint
        // from the input.
        let (universe, turns) = design_turns(&catalog::p1_xy());
        let (_, surplus) = certify_checked(&universe, &turns).unwrap();
        for t in surplus.iter() {
            assert!(!turns.contains(t));
        }
    }
}
