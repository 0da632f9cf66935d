//! Random verification artifacts and their deterministic generator.
//!
//! An [`Artifact`] is one self-contained verification problem: a concrete
//! topology (2D/3D mesh or torus), a per-dimension VC budget, a channel
//! universe, a turn set, and — for partitioning artifacts — the EbDa
//! partition sequence the turn set came from. The [`Generator`] derives an
//! endless, seed-reproducible stream of them from an [`ebda_obs::Rng64`],
//! cycling through three families so every verdict path gets exercised:
//!
//! * **partitionings** — random channel partitions (frequently violating
//!   Theorem 1, the negative cases) mixed with Algorithm 1 outputs and
//!   their permutations (the positive cases);
//! * **channel orderings** — a random total order on the universe, turns
//!   allowed only in ascending order (Dally's classic numbering);
//! * **random turn relations** — each ordered class pair allowed with a
//!   sampled probability, from sparse to near-complete.

use ebda_cdg::{Cdg, Topology};
use ebda_core::{
    algorithm1, extract_turns, Channel, ChannelClass, Dimension, Direction, Parity, Partition,
    PartitionSeq, Turn, TurnSet,
};
use ebda_obs::Rng64;
use std::fmt;

/// Which family an artifact belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A (possibly invalid) EbDa partition sequence with extracted or
    /// naively-derived turns.
    Partitioning,
    /// A random total order on the channel classes; turns strictly ascend.
    ChannelOrdering,
    /// A random subset of all class-to-class turns.
    RandomTurns,
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactKind::Partitioning => write!(f, "partitioning"),
            ArtifactKind::ChannelOrdering => write!(f, "channel-ordering"),
            ArtifactKind::RandomTurns => write!(f, "random-turns"),
        }
    }
}

/// One generated verification problem (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Sequence number within the generator's stream.
    pub id: u64,
    /// The family it was drawn from.
    pub kind: ArtifactKind,
    /// Per-dimension radices of the topology.
    pub radix: Vec<usize>,
    /// Per-dimension wrap flags (`true` = torus dimension).
    pub wrap: Vec<bool>,
    /// Per-dimension virtual-channel budget.
    pub vcs: Vec<u8>,
    /// The channel-class universe.
    pub universe: Vec<Channel>,
    /// The allowed turns over `universe`.
    pub turns: TurnSet,
    /// The partition sequence, for [`ArtifactKind::Partitioning`] only.
    pub design: Option<PartitionSeq>,
}

impl Artifact {
    /// Builds the concrete topology instance.
    pub fn topology(&self) -> Topology {
        Topology::mesh(&self.radix).with_wrap(&self.wrap)
    }

    /// The channel dependency graph of the relation on
    /// [`Artifact::topology`] — the graph Dally's check, the ordering
    /// certificate and the `cdg_edge` coverage family all read.
    pub(crate) fn cdg(&self) -> Cdg {
        Cdg::from_turn_set(&self.topology(), &self.vcs, &self.universe, &self.turns)
    }

    /// Returns `true` when any dimension wraps (the EbDa mesh-only
    /// guarantee does not apply).
    pub fn wraps(&self) -> bool {
        self.wrap.iter().any(|&w| w)
    }

    /// Total node count of the topology.
    pub fn node_count(&self) -> usize {
        self.radix.iter().product()
    }

    /// A compact one-line description for logs and disagreement reports.
    pub fn summary(&self) -> String {
        let shape: Vec<String> = self
            .radix
            .iter()
            .zip(&self.wrap)
            .map(|(r, w)| format!("{r}{}", if *w { "t" } else { "" }))
            .collect();
        let design = match &self.design {
            Some(seq) => format!(", design {seq}"),
            None => String::new(),
        };
        format!(
            "#{} {} on {} (vcs {:?}, {} classes, {} turns{design})",
            self.id,
            self.kind,
            shape.join("x"),
            self.vcs,
            self.universe.len(),
            self.turns.len(),
        )
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

/// The naive turn relation of a partition sequence, used when the sequence
/// fails validation (so EbDa refuses to extract): all intra-partition
/// transitions plus all forward inter-partition transitions. For *valid*
/// sequences this over-approximates Theorem 2 (which restricts U-/I-turns
/// to ascending VC order); for invalid ones it models the router a
/// designer would naively build from the broken partitioning.
pub fn naive_turns(seq: &PartitionSeq) -> TurnSet {
    let mut turns = TurnSet::new();
    let parts = seq.partitions();
    for (i, p) in parts.iter().enumerate() {
        for &a in p.iter() {
            for &b in p.iter() {
                if a != b {
                    turns.insert(Turn::new(a, b));
                }
            }
            for q in parts.iter().skip(i + 1) {
                for &b in q.iter() {
                    if a != b {
                        turns.insert(Turn::new(a, b));
                    }
                }
            }
        }
    }
    turns
}

/// A deterministic stream of verification artifacts.
#[derive(Debug)]
pub struct Generator {
    rng: Rng64,
    next_id: u64,
    max_nodes: usize,
}

impl Generator {
    /// A generator whose topologies stay at or below `max_nodes` nodes —
    /// small ceilings keep debug-build campaigns fast.
    ///
    /// # Panics
    ///
    /// Panics if `max_nodes < 4` (no 2D topology fits).
    pub fn with_max_nodes(seed: u64, max_nodes: usize) -> Generator {
        assert!(max_nodes >= 4, "need room for at least a 2x2 mesh");
        Generator {
            rng: Rng64::new(seed),
            next_id: 0,
            max_nodes,
        }
    }

    /// Draws the next artifact. The stream is fully determined by the seed.
    pub fn next_artifact(&mut self) -> Artifact {
        let id = self.next_id;
        self.next_id += 1;
        let kind = match id % 3 {
            0 => ArtifactKind::Partitioning,
            1 => ArtifactKind::ChannelOrdering,
            _ => ArtifactKind::RandomTurns,
        };

        let (radix, wrap, vcs) = self.sample_shape();
        let dims = radix.len();

        let mut artifact = match kind {
            ArtifactKind::Partitioning => self.partitioning(dims, &vcs),
            ArtifactKind::ChannelOrdering => self.channel_ordering(dims, &vcs),
            ArtifactKind::RandomTurns => self.random_turns(dims, &vcs),
        };
        artifact.id = id;
        artifact.kind = kind;
        artifact.radix = radix;
        artifact.wrap = wrap;
        artifact
    }

    /// Samples a topology shape and VC budget within the node ceiling.
    fn sample_shape(&mut self) -> (Vec<usize>, Vec<bool>, Vec<u8>) {
        loop {
            let dims = if self.rng.gen_bool(0.75) { 2 } else { 3 };
            let radix: Vec<usize> = (0..dims)
                .map(|_| {
                    if dims == 2 {
                        3 + self.rng.gen_index(3) // 3..=5
                    } else {
                        2 + self.rng.gen_index(2) // 2..=3
                    }
                })
                .collect();
            if radix.iter().product::<usize>() > self.max_nodes {
                continue;
            }
            let wrap: Vec<bool> = radix
                .iter()
                .map(|&r| r >= 3 && self.rng.gen_bool(0.3))
                .collect();
            let vc_cap = if dims == 2 { 4 } else { 2 };
            let vcs: Vec<u8> = (0..dims)
                .map(|_| {
                    let mut vc = 1u8;
                    while vc < vc_cap && self.rng.gen_bool(0.35) {
                        vc += 1;
                    }
                    vc
                })
                .collect();
            return (radix, wrap, vcs);
        }
    }

    /// The full channel pool for a VC budget: every (dim, dir, vc) class.
    fn pool(&self, dims: usize, vcs: &[u8]) -> Vec<Channel> {
        let mut pool = Vec::new();
        for (d, &vc_count) in vcs.iter().enumerate().take(dims) {
            for dir in [Direction::Plus, Direction::Minus] {
                for vc in 1..=vc_count {
                    pool.push(Channel::with_vc(Dimension::new(d as u8), dir, vc));
                }
            }
        }
        pool
    }

    /// With some probability, splits one unrestricted class into an
    /// even/odd parity pair — stressing the class-matching logic of every
    /// verdict path.
    fn maybe_add_parity(&mut self, dims: usize, universe: &mut Vec<Channel>) {
        if !self.rng.gen_bool(0.25) {
            return;
        }
        let i = self.rng.gen_index(universe.len());
        if universe[i].class != ChannelClass::All {
            return;
        }
        let axis = Dimension::new(self.rng.gen_index(dims) as u8);
        let base = universe.remove(i);
        for parity in [Parity::Even, Parity::Odd] {
            universe.push(Channel {
                class: ChannelClass::AtParity { axis, parity },
                ..base
            });
        }
    }

    fn partitioning(&mut self, dims: usize, vcs: &[u8]) -> Artifact {
        // Algorithm 1 output: valid by construction — then sometimes
        // permuted (permutation only reorders partitions, so Theorem 1
        // still holds, but the extraction changes shape).
        let algo1 = if self.rng.gen_bool(0.4) {
            algorithm1::partition_network(vcs).ok()
        } else {
            None
        };
        let seq = if let Some(seq) = algo1 {
            if self.rng.gen_bool(0.5) && seq.len() > 1 {
                let mut order: Vec<usize> = (0..seq.len()).collect();
                self.rng.shuffle(&mut order);
                seq.permuted(&order)
            } else {
                seq
            }
        } else {
            // A uniformly random partitioning of the full pool — the
            // negative-case stream (most draws violate Theorem 1).
            let mut pool = self.pool(dims, vcs);
            self.rng.shuffle(&mut pool);
            let k = 1 + self.rng.gen_index(pool.len().min(4));
            let mut partitions: Vec<Partition> = Vec::new();
            let chunk = pool.len().div_ceil(k);
            for channels in pool.chunks(chunk) {
                partitions.push(
                    Partition::from_channels(channels.iter().copied())
                        .expect("pool channels are distinct"),
                );
            }
            PartitionSeq::from_partitions(partitions)
        };
        let universe = seq.channels();
        let turns = match extract_turns(&seq) {
            Ok(extraction) => extraction.into_turn_set(),
            Err(_) => naive_turns(&seq),
        };
        Artifact {
            id: 0,
            kind: ArtifactKind::Partitioning,
            radix: Vec::new(),
            wrap: Vec::new(),
            vcs: vcs.to_vec(),
            universe,
            turns,
            design: Some(seq),
        }
    }

    fn channel_ordering(&mut self, dims: usize, vcs: &[u8]) -> Artifact {
        let mut universe = self.pool(dims, vcs);
        self.maybe_add_parity(dims, &mut universe);
        self.rng.shuffle(&mut universe);
        let mut turns = TurnSet::new();
        for i in 0..universe.len() {
            for j in (i + 1)..universe.len() {
                turns.insert(Turn::new(universe[i], universe[j]));
            }
        }
        Artifact {
            id: 0,
            kind: ArtifactKind::ChannelOrdering,
            radix: Vec::new(),
            wrap: Vec::new(),
            vcs: vcs.to_vec(),
            universe,
            turns,
            design: None,
        }
    }

    fn random_turns(&mut self, dims: usize, vcs: &[u8]) -> Artifact {
        let mut universe = self.pool(dims, vcs);
        self.maybe_add_parity(dims, &mut universe);
        let p = [0.15, 0.4, 0.7][self.rng.gen_index(3)];
        let mut turns = TurnSet::new();
        for &a in &universe {
            for &b in &universe {
                if a != b && self.rng.gen_bool(p) {
                    turns.insert(Turn::new(a, b));
                }
            }
        }
        Artifact {
            id: 0,
            kind: ArtifactKind::RandomTurns,
            radix: Vec::new(),
            wrap: Vec::new(),
            vcs: vcs.to_vec(),
            universe,
            turns,
            design: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seed_reproducible() {
        let mut a = Generator::with_max_nodes(42, 36);
        let mut b = Generator::with_max_nodes(42, 36);
        for _ in 0..30 {
            assert_eq!(a.next_artifact(), b.next_artifact());
        }
        let mut c = Generator::with_max_nodes(43, 36);
        let differs = (0..30).any(|_| a.next_artifact() != c.next_artifact());
        assert!(differs, "different seeds should diverge");
    }

    #[test]
    fn kinds_cycle_and_shapes_respect_the_ceiling() {
        let mut g = Generator::with_max_nodes(7, 20);
        for i in 0..60u64 {
            let a = g.next_artifact();
            assert_eq!(a.id, i);
            assert!(a.node_count() <= 20, "{}", a.summary());
            assert!(!a.universe.is_empty());
            assert_eq!(a.vcs.len(), a.radix.len());
            let expected = match i % 3 {
                0 => ArtifactKind::Partitioning,
                1 => ArtifactKind::ChannelOrdering,
                _ => ArtifactKind::RandomTurns,
            };
            assert_eq!(a.kind, expected);
            if a.kind == ArtifactKind::Partitioning {
                assert!(a.design.is_some());
            }
            // Wrapped dimensions always have radix >= 3.
            for (r, w) in a.radix.iter().zip(&a.wrap) {
                assert!(!w || *r >= 3);
            }
            // The topology builds without panicking.
            assert_eq!(a.topology().node_count(), a.node_count());
        }
    }

    #[test]
    fn valid_partitionings_get_extracted_turns() {
        // A valid design's artifact turns must match the Theorem 1–3
        // extraction, not the naive over-approximation.
        let mut g = Generator::with_max_nodes(5, 36);
        let mut checked = 0;
        for _ in 0..120 {
            let a = g.next_artifact();
            if let Some(seq) = &a.design {
                if let Ok(extraction) = extract_turns(seq) {
                    assert_eq!(&a.turns, extraction.turn_set());
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "stream produced no valid designs");
    }

    #[test]
    fn naive_turns_of_an_invalid_sequence_are_cyclic_material() {
        // One partition holding both complete pairs: the naive router
        // allows every turn.
        let seq = PartitionSeq::parse("X+ X- Y+ Y-").unwrap();
        assert!(seq.validate().is_err());
        let turns = naive_turns(&seq);
        assert_eq!(turns.len(), 12); // all ordered pairs of 4 classes
    }
}
