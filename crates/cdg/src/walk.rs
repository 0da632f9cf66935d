//! The one table of which channel classes run on which link, and the
//! node pass that builds it. A [`Walk`] visits the nodes in id order and
//! probes their links; [`LinkTable::new`] runs it once and records, per
//! node and link slot `(dim, dir)`, the neighbour and the classes of a
//! universe that run there. Duato's connectivity check, `TurnRouting` in
//! `ebda-routing` and [`Topology::admit`] read that table.
//! [`crate::graph::Skeleton::new`] still runs its own walk and matches
//! through [`ClassBuckets`], re-matching only where a restricted class
//! changes its answer: a skeleton built on the table measured 1.7–2×
//! slower at radix 32. Either way this file is the one place a prover
//! matches a class against a node.

use crate::bitrow;
use crate::topology::{NodeId, Topology};
use ebda_core::{Channel, Dimension, Direction};

/// A cursor over the nodes of a topology in id order. Coordinates
/// advance as an odometer (row-major ids: the last dimension turns
/// fastest), so no node is decoded by division, and a link probe steps
/// by a per-dimension stride computed once per walk.
pub(crate) struct Walk<'a> {
    topo: &'a Topology,
    /// Id distance of one step along each dimension.
    stride: Vec<usize>,
    coords: Vec<i64>,
    node: NodeId,
}

impl<'a> Walk<'a> {
    /// A walk standing on node 0 (every topology has one).
    pub(crate) fn new(topo: &'a Topology) -> Walk<'a> {
        let mut stride = vec![1; topo.dims()];
        for d in (1..topo.dims()).rev() {
            stride[d - 1] = stride[d] * topo.radix()[d];
        }
        Walk {
            topo,
            stride,
            coords: vec![0; topo.dims()],
            node: 0,
        }
    }

    /// The node the walk stands on.
    #[inline]
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// Its coordinates.
    #[inline]
    pub(crate) fn coords(&self) -> &[i64] {
        &self.coords
    }

    /// Its neighbour along dimension `d` (below `dims()`) in direction
    /// `dir`: [`Topology::neighbor`] without decoding or allocating.
    #[inline]
    pub(crate) fn neighbor(&self, d: usize, dir: Direction) -> Option<NodeId> {
        self.topo
            .step(self.node, &self.coords, d, dir, self.stride[d])
    }

    /// Moves to the next node; `false` once every node has been visited,
    /// with the walk back on node 0, ready for another round.
    #[inline]
    pub(crate) fn advance(&mut self) -> bool {
        self.node += 1;
        for (c, &r) in self.coords.iter_mut().zip(self.topo.radix()).rev() {
            *c += 1;
            if (*c as usize) < r {
                return true;
            }
            *c = 0;
        }
        self.node = 0;
        false
    }
}

/// A universe's classes grouped into caller-defined slots — one per
/// link kind the caller enumerates — so that a link is matched against
/// the classes that can run on it and no others.
pub(crate) struct ClassBuckets<'a> {
    universe: &'a [Channel],
    /// Slot `s` is `index[end[s - 1]..end[s]]` (from 0 for the first).
    end: Vec<u32>,
    /// Universe indices by slot, ascending within each.
    index: Vec<u32>,
}

impl<'a> ClassBuckets<'a> {
    /// Groups `universe` by `slot_of` (below `slots`; `None` for a class
    /// no link of the network carries).
    pub(crate) fn new(
        universe: &'a [Channel],
        slots: usize,
        slot_of: impl Fn(&Channel) -> Option<usize>,
    ) -> ClassBuckets<'a> {
        // A counting sort: sizes, then starts, then each start moves to
        // its slot's end as the slot fills.
        let mut end = vec![0u32; slots];
        for s in universe.iter().filter_map(&slot_of) {
            end[s] += 1;
        }
        let mut total = 0;
        for e in &mut end {
            total += std::mem::replace(e, total);
        }
        let mut index = vec![0u32; total as usize];
        for (i, s) in universe.iter().map(&slot_of).enumerate() {
            if let Some(s) = s {
                index[end[s] as usize] = i as u32;
                end[s] += 1;
            }
        }
        ClassBuckets {
            universe,
            end,
            index,
        }
    }

    /// Universe indices, ascending, of the classes of `slot` whose
    /// coordinate restriction holds at `coords`: the classes a link of
    /// that slot leaving the node at `coords` *matches*.
    #[inline]
    pub(crate) fn matched<'s>(
        &'s self,
        slot: usize,
        coords: &'s [i64],
    ) -> impl Iterator<Item = usize> + 's {
        let start = slot.checked_sub(1).map_or(0, |before| self.end[before]);
        self.index[start as usize..self.end[slot] as usize]
            .iter()
            .map(|&i| i as usize)
            .filter(move |&i| self.universe[i].class.contains(coords))
    }
}

/// Neighbour entry for "no link".
const NO_LINK: u32 = u32::MAX;

/// The slot of direction `dir` of dimension `d`: two per dimension,
/// `Plus` first.
#[inline]
pub(crate) fn slot(d: usize, dir: Direction) -> usize {
    2 * d + usize::from(dir == Direction::Minus)
}

/// Which classes of a universe run on which link of a topology. Per
/// node and link slot `(dim, dir)` it holds the neighbour — none at a
/// mesh edge, a missing partial link or a failed link — and one
/// bit row over the universe: the classes of that dimension and
/// direction whose coordinate restriction holds at the node, on a link
/// that exists. Where there is no link the row is empty, and a class
/// on an axis the topology lacks is in no row.
#[derive(Debug, Clone)]
pub struct LinkTable {
    slots: usize,
    words: usize,
    /// Per `(node, slot)`, at `node * slots + slot`: the neighbour, or
    /// [`NO_LINK`].
    next: Vec<u32>,
    /// Per `(node, slot)`, its row of classes.
    classes: Vec<u64>,
}

impl LinkTable {
    /// One walk over `topo`, matching every class of `universe` at every
    /// node against the link it runs on.
    ///
    /// # Panics
    ///
    /// Panics if the topology has `u32::MAX` nodes or more.
    pub fn new(topo: &Topology, universe: &[Channel]) -> LinkTable {
        let (dims, words) = (topo.dims(), bitrow::words_for(universe.len()));
        let (n, slots) = (topo.node_count(), 2 * dims);
        assert!(n < NO_LINK as usize, "too many nodes for the link table");
        let mut next = vec![NO_LINK; n * slots];
        let mut classes = vec![0u64; n * slots * words];
        let mut walk = Walk::new(topo);
        loop {
            let at = walk.node() * slots;
            for d in 0..dims {
                for dir in [Direction::Plus, Direction::Minus] {
                    if let Some(to) = walk.neighbor(d, dir) {
                        next[at + slot(d, dir)] = to as u32;
                    }
                }
            }
            for (c, cl) in universe.iter().enumerate() {
                let s = at + slot(cl.dim.index(), cl.dir);
                let linked = cl.dim.index() < dims && next[s] != NO_LINK;
                if linked && cl.class.contains(walk.coords()) {
                    bitrow::set(&mut classes[s * words..], c);
                }
            }
            if !walk.advance() {
                break;
            }
        }
        LinkTable {
            slots,
            words,
            next,
            classes,
        }
    }

    /// The neighbour of `node` along `dim` in direction `dir`:
    /// [`Topology::neighbor`]'s answer.
    pub fn neighbor(&self, node: NodeId, dim: Dimension, dir: Direction) -> Option<NodeId> {
        Some(self.hop(node, slot(dim.index(), dir))?.0)
    }

    /// Universe indices, ascending, of the classes that run on that
    /// link: none where there is no link.
    pub fn classes(
        &self,
        node: NodeId,
        dim: Dimension,
        dir: Direction,
    ) -> impl Iterator<Item = usize> + '_ {
        let row = self.hop(node, slot(dim.index(), dir)).map(|(_, row)| row);
        bitrow::ones(row.unwrap_or_default())
    }

    /// The neighbour at `slot` of `node` and the row of classes of that
    /// link, or `None` where there is no link (nor slot): a reader never
    /// indexes by a missing neighbour.
    #[inline]
    pub(crate) fn hop(&self, node: NodeId, slot: usize) -> Option<(NodeId, &[u64])> {
        let at = node * self.slots + slot;
        if slot >= self.slots || self.next[at] == NO_LINK {
            return None;
        }
        Some((
            self.next[at] as usize,
            &self.classes[at * self.words..][..self.words],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_core::{parse_channels, Dimension, Parity};

    #[test]
    fn a_walk_visits_every_node_with_its_coordinates_and_links() {
        let z = Dimension::Z;
        let topos = [
            Topology::mesh(&[3, 4, 5]),
            Topology::torus(&[5, 3]),
            Topology::torus(&[1, 2, 3]),
            Topology::mesh(&[1]),
            Topology::mesh(&[4, 3]).with_wrap(&[false, true]),
            Topology::torus(&[4, 4]).with_failed_link(9, Dimension::Y, Direction::Minus),
            Topology::mesh(&[3, 3, 2]).with_partial_dim(z, [vec![0, 0], vec![2, 2]]),
        ];
        for t in &topos {
            let mut walk = Walk::new(t);
            for node in t.nodes() {
                assert_eq!(walk.node(), node);
                assert_eq!(walk.coords(), t.coords(node), "{t:?}: node {node}");
                for d in 0..t.dims() {
                    for dir in [Direction::Plus, Direction::Minus] {
                        assert_eq!(
                            walk.neighbor(d, dir),
                            t.neighbor(node, Dimension::new(d as u8), dir),
                            "{t:?}: node {node} dimension {d} {dir}"
                        );
                    }
                }
                assert_eq!(walk.advance(), node + 1 < t.node_count());
            }
        }
    }

    #[test]
    fn buckets_keep_universe_order_and_apply_the_restriction() {
        // Slots by dimension; the Z class belongs to no slot.
        let mut universe = parse_channels("Y+ X+ Y- X2- X+ Z+").unwrap();
        universe[1] = universe[1].at_parity(Dimension::Y, Parity::Odd);
        universe[2] = universe[2].at_coord(Dimension::X, 3);
        let buckets = ClassBuckets::new(&universe, 2, |c| Some(c.dim.index()).filter(|&d| d < 2));
        let matched = |slot, coords: &[i64]| buckets.matched(slot, coords).collect::<Vec<_>>();
        assert_eq!(matched(0, &[0, 0]), [3, 4]);
        assert_eq!(matched(0, &[0, 1]), [1, 3, 4]);
        assert_eq!(matched(1, &[0, 1]), [0]);
        assert_eq!(matched(1, &[3, 1]), [0, 2]);
        let none = ClassBuckets::new(&[], 3, |_| Some(0));
        assert_eq!(none.matched(2, &[0]).count(), 0);
    }
}
