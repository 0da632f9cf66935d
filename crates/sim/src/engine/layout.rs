//! Slot arithmetic for the flattened per-node port/VC arrays and the
//! link maps resolved from the topology.

use super::*;

/// "No such slot" in the link maps.
pub(super) const NO_SLOT: usize = usize::MAX;

/// How the slots are wired by the topology's links: `down_in[o]` is the
/// in-slot that out-slot `o` feeds, `up_out[i]` the out-slot that feeds
/// in-slot `i` ([`NO_SLOT`] at mesh edges, missing or failed links and,
/// for `up_out`, injection slots). Resolved at construction and after
/// each applied fault, so moving a flit and returning its credit are
/// array reads.
#[derive(Debug)]
pub(super) struct Links {
    pub(super) down_in: Vec<usize>,
    pub(super) up_out: Vec<usize>,
}

impl Links {
    pub(super) fn new(topo: &Topology, layout: &Layout) -> Links {
        let n = topo.node_count();
        let mut down_in = vec![NO_SLOT; n * layout.out_per_node];
        let mut up_out = vec![NO_SLOT; n * layout.in_per_node];
        for node in topo.nodes() {
            for port in 0..2 * layout.dims {
                let dim = ebda_core::Dimension::new(Layout::port_dim(port) as u8);
                let Some(nbr) = topo.neighbor(node, dim, Layout::port_dir(port)) else {
                    continue;
                };
                for vc0 in 0..layout.vcs[Layout::port_dim(port)] as usize {
                    let oslot = layout.out_slot(node, port, vc0);
                    let islot = layout.in_slot(nbr, port, vc0);
                    down_in[oslot] = islot;
                    up_out[islot] = oslot;
                }
            }
        }
        Links { down_in, up_out }
    }
}

/// Index arithmetic for the flattened per-node port/VC arrays.
#[derive(Debug)]
pub(super) struct Layout {
    pub(super) dims: usize,
    pub(super) vcs: Vec<u8>,
    /// First in-slot of each network port within a node, plus the
    /// injection slot at the end.
    pub(super) in_base: Vec<usize>,
    pub(super) in_per_node: usize,
    pub(super) out_base: Vec<usize>,
    pub(super) out_per_node: usize,
}

impl Layout {
    pub(super) fn new(topo: &Topology, vcs: &[u8]) -> Layout {
        let dims = topo.dims();
        let ports = 2 * dims;
        let mut in_base = Vec::with_capacity(ports + 1);
        let mut acc = 0usize;
        for p in 0..ports {
            in_base.push(acc);
            acc += vcs[p / 2] as usize;
        }
        in_base.push(acc); // injection slot
        let in_per_node = acc + 1;
        let out_base = in_base[..ports].to_vec();
        Layout {
            dims,
            vcs: vcs.to_vec(),
            in_base,
            in_per_node,
            out_base,
            out_per_node: acc,
        }
    }

    pub(super) fn port(dim: usize, dir: ebda_core::Direction) -> usize {
        2 * dim + usize::from(dir == ebda_core::Direction::Minus)
    }

    pub(super) fn port_dim(p: usize) -> usize {
        p / 2
    }

    pub(super) fn port_dir(p: usize) -> ebda_core::Direction {
        if p.is_multiple_of(2) {
            ebda_core::Direction::Plus
        } else {
            ebda_core::Direction::Minus
        }
    }

    pub(super) fn in_slot(&self, node: NodeId, port: usize, vc0: usize) -> usize {
        node * self.in_per_node + self.in_base[port] + vc0
    }

    pub(super) fn injection_slot(&self, node: NodeId) -> usize {
        node * self.in_per_node + self.in_per_node - 1
    }

    pub(super) fn out_slot(&self, node: NodeId, port: usize, vc0: usize) -> usize {
        node * self.out_per_node + self.out_base[port] + vc0
    }

    /// Decomposes a global out-slot into (node, local port, vc0).
    pub(super) fn out_slot_parts(&self, slot: usize) -> (NodeId, usize, usize) {
        let node = slot / self.out_per_node;
        let local = slot % self.out_per_node;
        let mut port = 0;
        while port + 1 < self.out_base.len() && self.out_base[port + 1] <= local {
            port += 1;
        }
        (node, port, local - self.out_base[port])
    }

    /// Decomposes a global in-slot into (node, local port, vc0); the local
    /// port equals `2 * dims` for injection slots.
    pub(super) fn in_slot_parts(&self, slot: usize) -> (NodeId, usize, usize) {
        let node = slot / self.in_per_node;
        let local = slot % self.in_per_node;
        if local == self.in_per_node - 1 {
            return (node, 2 * self.dims, 0);
        }
        let mut port = 0;
        while port + 1 < self.in_base.len() && self.in_base[port + 1] <= local {
            port += 1;
        }
        (node, port, local - self.in_base[port])
    }
}

/// Renders a direction as the `+`/`-` character used in trace events.
pub(super) fn dir_char(dir: ebda_core::Direction) -> char {
    match dir {
        ebda_core::Direction::Plus => '+',
        ebda_core::Direction::Minus => '-',
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    #[test]
    fn slot_arithmetic_roundtrips() {
        let topo = Topology::mesh(&[3, 4, 2]);
        let vcs = [2u8, 1, 3];
        let layout = Layout::new(&topo, &vcs);
        // in-slots: every (node, port, vc) decodes back to itself.
        for node in topo.nodes() {
            for port in 0..(2 * layout.dims) {
                for vc0 in 0..vcs[Layout::port_dim(port)] as usize {
                    let slot = layout.in_slot(node, port, vc0);
                    assert_eq!(layout.in_slot_parts(slot), (node, port, vc0));
                }
            }
            let inj = layout.injection_slot(node);
            let (n, p, v) = layout.in_slot_parts(inj);
            assert_eq!((n, p, v), (node, 2 * layout.dims, 0));
        }
    }

    #[test]
    fn slots_are_dense_and_disjoint() {
        let topo = Topology::mesh(&[3, 3]);
        let vcs = [2u8, 2];
        let layout = Layout::new(&topo, &vcs);
        let mut seen = std::collections::HashSet::new();
        for node in topo.nodes() {
            for port in 0..4 {
                for vc0 in 0..2 {
                    assert!(seen.insert(layout.in_slot(node, port, vc0)));
                }
            }
            assert!(seen.insert(layout.injection_slot(node)));
        }
        assert_eq!(seen.len(), topo.node_count() * layout.in_per_node);
    }

    #[test]
    fn port_encoding_is_involutive() {
        use ebda_core::Direction;
        for d in 0..4usize {
            for dir in [Direction::Plus, Direction::Minus] {
                let p = Layout::port(d, dir);
                assert_eq!(Layout::port_dim(p), d);
                assert_eq!(Layout::port_dir(p), dir);
            }
        }
    }
}
