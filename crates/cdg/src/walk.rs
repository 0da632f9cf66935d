//! The pass over every node that the network-wide kernels share —
//! [`crate::graph::Skeleton::new`] and Duato's connectivity check: a
//! [`Walk`] visits the nodes in id order and probes their links, and
//! [`ClassBuckets`] says which channel classes of a universe hold at the
//! node for the link in hand. The crate's one decode-and-match loop.

use crate::topology::{NodeId, Topology};
use ebda_core::{Channel, Direction};

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
