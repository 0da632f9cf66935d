//! Concrete network topologies for verification: `n`-dimensional meshes,
//! `k`-ary `n`-cubes (tori), and vertically partially connected 3D meshes.

use crate::walk::LinkTable;
use ebda_core::{Channel, ChannelClass, Dimension, Direction};
use std::collections::BTreeSet;
use std::ops::Bound;

/// A node index, row-major over the topology's radices.
pub type NodeId = usize;

/// Connectivity restrictions beyond the regular mesh/torus links.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Connectivity {
    /// Every regular link is present.
    #[default]
    Full,
    /// Links along `dim` exist only at base coordinates (the coordinates
    /// with the `dim` entry removed) listed in `columns` — the "vertically
    /// partially connected" 3D networks of Section 6.3, where only some
    /// (x, y) positions have elevators.
    Partial {
        /// The restricted dimension (e.g. `Z`).
        dim: Dimension,
        /// Base coordinates that keep their links along `dim`.
        columns: BTreeSet<Vec<i64>>,
    },
}

/// A concrete topology instance: per-dimension radices, wrap flags (torus
/// dimensions), optional connectivity restrictions and failed links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    radix: Vec<usize>,
    wrap: Vec<bool>,
    connectivity: Connectivity,
    /// Failed directed links as `(from_node, dim_index, direction)`.
    failed: BTreeSet<(NodeId, usize, Direction)>,
}

impl Topology {
    /// An `n`-dimensional mesh with the given per-dimension radices.
    ///
    /// ```
    /// use ebda_cdg::Topology;
    /// let mesh = Topology::mesh(&[4, 4]);
    /// assert_eq!(mesh.node_count(), 16);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `radix` is empty or contains a dimension smaller than 1.
    pub fn mesh(radix: &[usize]) -> Topology {
        assert!(!radix.is_empty(), "a topology needs at least one dimension");
        assert!(radix.iter().all(|&r| r >= 1), "radix must be at least 1");
        Topology {
            radix: radix.to_vec(),
            wrap: vec![false; radix.len()],
            connectivity: Connectivity::Full,
            failed: BTreeSet::new(),
        }
    }

    /// A `k`-ary `n`-cube: like a mesh but every dimension wraps around.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Topology::mesh`].
    pub fn torus(radix: &[usize]) -> Topology {
        let mut t = Topology::mesh(radix);
        t.wrap = vec![true; radix.len()];
        t
    }

    /// Makes individual dimensions wrap.
    ///
    /// # Panics
    ///
    /// Panics if `wrap.len()` differs from the dimension count.
    pub fn with_wrap(mut self, wrap: &[bool]) -> Topology {
        assert_eq!(wrap.len(), self.radix.len(), "wrap flag per dimension");
        self.wrap = wrap.to_vec();
        self
    }

    /// Restricts links along `dim` to the given base coordinates (the
    /// coordinate vectors with the `dim` entry removed). Models the
    /// vertically partially connected 3D NoCs of Section 6.3.
    ///
    /// ```
    /// use ebda_cdg::Topology;
    /// use ebda_core::Dimension;
    /// // 3x3x2 mesh with elevators only at (0,0) and (2,2).
    /// let t = Topology::mesh(&[3, 3, 2])
    ///     .with_partial_dim(Dimension::Z, [vec![0, 0], vec![2, 2]]);
    /// assert!(t.neighbor(0, Dimension::Z, ebda_core::Direction::Plus).is_some());
    /// assert!(t.neighbor(1, Dimension::Z, ebda_core::Direction::Plus).is_none());
    /// ```
    pub fn with_partial_dim<I>(mut self, dim: Dimension, columns: I) -> Topology
    where
        I: IntoIterator<Item = Vec<i64>>,
    {
        self.connectivity = Connectivity::Partial {
            dim,
            columns: columns.into_iter().collect(),
        };
        self
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.radix.len()
    }

    /// Per-dimension radices.
    pub fn radix(&self) -> &[usize] {
        &self.radix
    }

    /// Returns `true` if the given dimension wraps (torus dimension).
    pub fn wraps(&self, dim: Dimension) -> bool {
        self.wrap.get(dim.index()).copied().unwrap_or(false)
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.radix.iter().product()
    }

    /// Coordinates of a node (row-major decoding).
    pub fn coords(&self, node: NodeId) -> Vec<i64> {
        let mut coords = vec![0i64; self.radix.len()];
        let mut rest = node;
        for d in (0..self.radix.len()).rev() {
            coords[d] = (rest % self.radix[d]) as i64;
            rest /= self.radix[d];
        }
        debug_assert_eq!(rest, 0, "node index out of range");
        coords
    }

    /// Node id from coordinates.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is outside the radix range.
    pub fn node_at(&self, coords: &[i64]) -> NodeId {
        assert_eq!(coords.len(), self.radix.len(), "coordinate arity");
        let mut id = 0usize;
        for (d, &c) in coords.iter().enumerate() {
            assert!(
                c >= 0 && (c as usize) < self.radix[d],
                "coordinate {c} out of range for dimension {d}"
            );
            id = id * self.radix[d] + c as usize;
        }
        id
    }

    /// Marks the physical link at `node` along `dim`/`dir` as failed —
    /// both traversal directions are removed (fault-injection for the
    /// Theorem 2 note: "enabling U-turns is essentially important in
    /// fault-tolerant designs").
    ///
    /// Unknown links (mesh edges) are ignored.
    pub fn with_failed_link(mut self, node: NodeId, dim: Dimension, dir: Direction) -> Topology {
        if let Some(other) = self.neighbor(node, dim, dir) {
            self.failed.insert((node, dim.index(), dir));
            self.failed.insert((other, dim.index(), dir.opposite()));
        }
        self
    }

    /// The neighbour of `node` along `dim` in direction `dir`, or `None`
    /// at a mesh edge, a missing partial link, or a failed link.
    pub fn neighbor(&self, node: NodeId, dim: Dimension, dir: Direction) -> Option<NodeId> {
        let d = dim.index();
        if d >= self.radix.len() {
            return None;
        }
        // Row-major ids: one step along `d` moves by the product of the
        // radices after it.
        let stride: usize = self.radix[d + 1..].iter().product();
        if self.connectivity != Connectivity::Full {
            // A partial dimension is keyed by the full base coordinate.
            return self.step(node, &self.coords(node), d, dir, stride);
        }
        if self.failed.contains(&(node, d, dir)) {
            return None;
        }
        // Only coordinate `d` matters on a regular network: decode it
        // from the stride without building the coordinate vector.
        self.moved(node, node / stride % self.radix[d], d, dir, stride)
    }

    /// [`Topology::neighbor`] for a pass that already holds `node`'s
    /// decoded `coords` and the `stride` of dimension `d` (see
    /// [`crate::walk::Walk`]): every link of a node is probed without
    /// allocating, on a partial dimension too.
    #[inline]
    pub(crate) fn step(
        &self,
        node: NodeId,
        coords: &[i64],
        d: usize,
        dir: Direction,
        stride: usize,
    ) -> Option<NodeId> {
        if self.failed.contains(&(node, d, dir)) {
            return None;
        }
        if let Connectivity::Partial { dim, columns } = &self.connectivity {
            if dim.index() == d {
                // The base coordinate is `coords` without entry `d`. The
                // columns starting with `coords[..d]` are contiguous in
                // the set's order and start at that prefix itself.
                let (before, after) = (&coords[..d], &coords[d + 1..]);
                let from_prefix = (Bound::Included(before), Bound::Unbounded);
                let listed = columns
                    .range::<[i64], _>(from_prefix)
                    .take_while(|c| c.starts_with(before))
                    .any(|c| c[d..] == *after);
                if !listed {
                    return None;
                }
            }
        }
        self.moved(node, coords[d] as usize, d, dir, stride)
    }

    /// The node one step from `node` — whose coordinate along `d` is
    /// `here` — with the mesh edges and the wrap-around applied.
    #[inline]
    fn moved(
        &self,
        node: NodeId,
        here: usize,
        d: usize,
        dir: Direction,
        stride: usize,
    ) -> Option<NodeId> {
        let r = self.radix[d];
        let next = match dir {
            Direction::Plus if here + 1 < r => here + 1,
            Direction::Minus if here > 0 => here - 1,
            Direction::Plus if self.wrap[d] => 0,
            Direction::Minus if self.wrap[d] => r - 1,
            _ => return None,
        };
        // Radix-1 dimensions have no distinct neighbour.
        (next != here).then(|| node - here * stride + next * stride)
    }

    /// Iterates over every node id.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count()
    }

    /// Iterates over every directed link as `(from, to, dim, dir)`.
    pub fn links(&self) -> Vec<(NodeId, NodeId, Dimension, Direction)> {
        let mut out = Vec::new();
        for node in self.nodes() {
            for d in 0..self.dims() {
                let dim = Dimension::new(d as u8);
                for dir in [Direction::Plus, Direction::Minus] {
                    if let Some(to) = self.neighbor(node, dim, dir) {
                        out.push((node, to, dim, dir));
                    }
                }
            }
        }
        out
    }

    /// Minimal hop distance between two nodes (per-dimension offsets;
    /// torus dimensions take the shorter way around).
    pub fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..self.dims())
            .map(|d| {
                let diff = (ca[d] - cb[d]).unsigned_abs();
                if self.wrap[d] {
                    diff.min(self.radix[d] as u64 - diff)
                } else {
                    diff
                }
            })
            .sum()
    }

    /// Checks that every class of `universe` exists on this topology: it
    /// moves along and is restricted to axes the topology has, a
    /// coordinate restriction names a coordinate in `[0, radix)`, and the
    /// class matches at least one link. A class failing any of these is
    /// vacuous: a verdict over it speaks of channels the network lacks.
    ///
    /// # Errors
    ///
    /// Names the first class that fails, and why.
    pub fn admit(&self, universe: &[Channel]) -> Result<(), String> {
        let links = LinkTable::new(self, universe);
        for (i, c) in universe.iter().enumerate() {
            let (axis, value) = match c.class {
                ChannelClass::All => (c.dim, None),
                ChannelClass::AtParity { axis, .. } => (axis, None),
                ChannelClass::AtCoord { axis, value }
                | ChannelClass::NotAtCoord { axis, value } => (axis, Some(value)),
            };
            if let Some(lacking) = [c.dim, axis].into_iter().find(|a| a.index() >= self.dims()) {
                let dims = self.dims();
                return Err(format!(
                    "class {c} names axis {lacking}, but the topology has {dims} dimensions"
                ));
            }
            let radix = self.radix[axis.index()] as i64;
            if let Some(v) = value.filter(|v| !(0..radix).contains(v)) {
                return Err(format!(
                    "class {c} names coordinate {v}, outside [0, {radix})"
                ));
            }
            let carries = |n| links.classes(n, c.dim, c.dir).any(|j| j == i);
            if !self.nodes().any(carries) {
                return Err(format!("class {c} matches no channel of the topology"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_refuses_each_kind_of_vacuous_class() {
        let admit =
            |topo: &Topology, spec: &str| topo.admit(&ebda_core::parse_channels(spec).unwrap());
        let (torus, mesh) = (Topology::torus(&[4, 4]), Topology::mesh(&[4, 4]));
        assert_eq!(admit(&torus, "X1+ X1- Y1+[X%2=0] X2+[X=3]"), Ok(()));
        let refused = [
            (
                &torus,
                "X1+ X1+[Z!=1]",
                "names axis Z, but the topology has 2 dimensions",
            ),
            (&torus, "X1+[Y=7]", "coordinate 7, outside [0, 4)"),
            (&torus, "X1+[X=-1]", "coordinate -1"),
            (&mesh, "X2+[X=3]", "matches no channel"),
            (&Topology::mesh(&[2, 4]), "X1+[X%2=1]", "matches no channel"),
        ];
        for (topo, spec, why) in refused {
            let err = admit(topo, spec).unwrap_err();
            assert!(
                err.contains(why) && err.starts_with("class X"),
                "{spec}: {err}"
            );
        }
    }

    #[test]
    fn coords_roundtrip() {
        let t = Topology::mesh(&[3, 4, 5]);
        for n in t.nodes() {
            assert_eq!(t.node_at(&t.coords(n)), n);
        }
    }

    #[test]
    fn mesh_edges_have_no_wrap() {
        let t = Topology::mesh(&[3, 3]);
        let corner = t.node_at(&[0, 0]);
        assert_eq!(t.neighbor(corner, Dimension::X, Direction::Minus), None);
        assert_eq!(t.neighbor(corner, Dimension::Y, Direction::Minus), None);
        assert_eq!(
            t.neighbor(corner, Dimension::X, Direction::Plus),
            Some(t.node_at(&[1, 0]))
        );
    }

    #[test]
    fn torus_wraps_both_ways() {
        let t = Topology::torus(&[4, 4]);
        let corner = t.node_at(&[0, 0]);
        assert_eq!(
            t.neighbor(corner, Dimension::X, Direction::Minus),
            Some(t.node_at(&[3, 0]))
        );
        let far = t.node_at(&[3, 3]);
        assert_eq!(
            t.neighbor(far, Dimension::Y, Direction::Plus),
            Some(t.node_at(&[3, 0]))
        );
    }

    #[test]
    fn link_counts() {
        // 3x3 mesh: 2 * 2 * 3 * 2 = 24 directed links.
        assert_eq!(Topology::mesh(&[3, 3]).links().len(), 24);
        // 3x3 torus: 2 dims * 9 nodes * 2 dirs = 36 directed links.
        assert_eq!(Topology::torus(&[3, 3]).links().len(), 36);
    }

    #[test]
    fn radix_one_dimension_has_no_neighbors() {
        let t = Topology::torus(&[1, 3]);
        let n = t.node_at(&[0, 1]);
        assert_eq!(t.neighbor(n, Dimension::X, Direction::Plus), None);
        assert!(t.neighbor(n, Dimension::Y, Direction::Plus).is_some());
    }

    #[test]
    fn partial_vertical_links() {
        let t = Topology::mesh(&[2, 2, 2]).with_partial_dim(Dimension::Z, [vec![0, 0]]);
        let has = t.node_at(&[0, 0, 0]);
        let hasnt = t.node_at(&[1, 0, 0]);
        assert!(t.neighbor(has, Dimension::Z, Direction::Plus).is_some());
        assert!(t.neighbor(hasnt, Dimension::Z, Direction::Plus).is_none());
        // X/Y links unaffected.
        assert!(t.neighbor(hasnt, Dimension::X, Direction::Minus).is_some());
    }

    #[test]
    fn failed_links_cut_both_directions() {
        let t = Topology::mesh(&[3, 3]);
        let a = t.node_at(&[0, 0]);
        let b = t.node_at(&[1, 0]);
        let t = t.with_failed_link(a, Dimension::X, Direction::Plus);
        assert_eq!(t.neighbor(a, Dimension::X, Direction::Plus), None);
        assert_eq!(t.neighbor(b, Dimension::X, Direction::Minus), None);
        // Other links unaffected.
        assert!(t.neighbor(a, Dimension::Y, Direction::Plus).is_some());
        assert_eq!(t.failed.len(), 2);
        // Failing a nonexistent (edge) link is a no-op.
        let t2 = Topology::mesh(&[3, 3]).with_failed_link(0, Dimension::X, Direction::Minus);
        assert_eq!(t2.failed.len(), 0);
    }

    /// `neighbor` from the definitions: coordinates re-encoded with
    /// `node_at`, the base coordinate built as a `Vec`.
    fn reference_neighbor(t: &Topology, node: NodeId, d: usize, dir: Direction) -> Option<NodeId> {
        if d >= t.dims() || t.failed.contains(&(node, d, dir)) {
            return None;
        }
        let mut coords = t.coords(node);
        if let Connectivity::Partial { dim, columns } = &t.connectivity {
            let mut base = coords.clone();
            base.remove(d);
            if dim.index() == d && !columns.contains(&base) {
                return None;
            }
        }
        let r = t.radix[d] as i64;
        let next = coords[d] + dir.sign();
        if !t.wrap[d] && !(0..r).contains(&next) {
            return None;
        }
        coords[d] = next.rem_euclid(r);
        Some(t.node_at(&coords)).filter(|&to| to != node)
    }

    #[test]
    fn neighbor_agrees_with_the_definitions() {
        let cut = |t: Topology| {
            let n = t.node_count() / 2;
            t.with_failed_link(n, Dimension::X, Direction::Plus)
        };
        let (x, y, z) = (Dimension::X, Dimension::Y, Dimension::Z);
        let topos = [
            Topology::mesh(&[3, 4, 5]),
            Topology::torus(&[4, 4]),
            Topology::torus(&[5, 3]),
            Topology::torus(&[1, 2, 3]),
            Topology::mesh(&[1, 1]),
            Topology::mesh(&[4, 3]).with_wrap(&[false, true]),
            Topology::mesh(&[2; 4]),
            cut(Topology::mesh(&[4, 4])),
            cut(Topology::torus(&[2, 5])),
            Topology::mesh(&[3, 3, 2]).with_partial_dim(z, [vec![0, 0], vec![2, 2]]),
            // A partial dimension in the middle and in front: the base
            // coordinate is not a contiguous part of the node's. Columns
            // of the wrong arity name no node.
            Topology::torus(&[3, 3, 3]).with_partial_dim(
                y,
                [vec![0, 0], vec![0, 2], vec![1, 1], vec![2], vec![2, 0, 0]],
            ),
            cut(Topology::mesh(&[3, 2, 3]).with_partial_dim(x, [vec![1, 2], vec![0, 0]])),
            Topology::mesh(&[3, 3]).with_partial_dim(x, []),
        ];
        for t in &topos {
            for node in t.nodes() {
                for d in 0..=t.dims() {
                    for dir in [Direction::Plus, Direction::Minus] {
                        assert_eq!(
                            t.neighbor(node, Dimension::new(d as u8), dir),
                            reference_neighbor(t, node, d, dir),
                            "{t:?}: node {node} dimension {d} {dir}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distances() {
        let m = Topology::mesh(&[5, 5]);
        assert_eq!(m.distance(m.node_at(&[0, 0]), m.node_at(&[4, 3])), 7);
        let t = Topology::torus(&[5, 5]);
        assert_eq!(t.distance(t.node_at(&[0, 0]), t.node_at(&[4, 3])), 3);
    }
}
