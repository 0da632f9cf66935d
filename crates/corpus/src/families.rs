//! The ten deterministic generator families.
//!
//! Five provably deadlock-free families and five provably deadlocking
//! ones, in the mold of verilock's `Gen1–Gen10` labeled generators. Every
//! entry's label is *proven* at generation time: the entry is pushed
//! through the full four-path check ([`crate::campaign::check_entry`])
//! and generation panics on any disagreement with the intended label, so
//! a mislabeled entry cannot enter a corpus.
//!
//! All families are deterministic — same code, same entries, same
//! canonical hashes — which is what lets the seed corpus live in git.

use crate::campaign::check_entry;
use crate::entry::{CorpusEntry, ExpectedVerdict};
use ebda_cdg::dally::infer_vcs;
use ebda_cdg::Topology;
use ebda_core::{
    algorithm1, catalog, extract_turns, Channel, Dimension, Direction, Partition, PartitionSeq,
    Turn, TurnSet,
};
use ebda_obs::Rng64;
use ebda_oracle::artifact::naive_turns;
use ebda_oracle::brute;
use ebda_oracle::verdict::Mutation;

/// The family slugs, deadlock-free first, in generation order.
pub(crate) const FAMILIES: [&str; 10] = [
    "mesh-xy",
    "torus-dateline",
    "turn-model",
    "duato-escape",
    "ebda-3d",
    "removed-dateline",
    "merged-partitions",
    "cyclic-turns",
    "escape-starved",
    "adversarial-random",
];

/// Generates every family's entries, proves each label with the honest
/// four-path check, and deduplicates by canonical hash.
///
/// # Panics
///
/// Panics if any generated entry fails its own label check — that means a
/// family's construction (or one of the verdict paths) is wrong, and a
/// corpus must never be built on top of it.
pub fn generate_all() -> Vec<CorpusEntry> {
    let mut entries = Vec::new();
    for family in FAMILIES {
        entries.extend(generate_family(family));
    }
    let mut seen = std::collections::BTreeSet::new();
    entries.retain(|e| seen.insert(e.content_hash()));
    for (i, e) in entries.iter().enumerate() {
        if let Some(reason) = check_entry(e, i as u64, Mutation::None) {
            panic!(
                "generated entry {} fails its own label: {reason}",
                e.summary()
            );
        }
    }
    entries
}

/// Generates one family's entries by slug.
///
/// # Panics
///
/// Panics on an unknown slug or when a deadlocking family cannot realize
/// a deadlock (a construction bug).
pub fn generate_family(family: &str) -> Vec<CorpusEntry> {
    match family {
        "mesh-xy" => mesh_xy(),
        "torus-dateline" => torus_dateline(),
        "turn-model" => turn_model(),
        "duato-escape" => duato_escape(),
        "ebda-3d" => ebda_3d(),
        "removed-dateline" => removed_dateline(),
        "merged-partitions" => merged_partitions(),
        "cyclic-turns" => cyclic_turns(),
        "escape-starved" => escape_starved(),
        "adversarial-random" => adversarial_random(),
        other => panic!("unknown corpus family {other:?}"),
    }
}

/// Builds an entry from a partition-sequence design: universe and VC
/// budget are derived from the design, turns come from the Theorem 1–3
/// extraction (or the naive router for invalid sequences).
#[allow(clippy::too_many_arguments)] // one argument per corpus-entry field
fn design_entry(
    family: &str,
    idx: usize,
    seq: PartitionSeq,
    radix: &[usize],
    wrap: &[bool],
    expected: ExpectedVerdict,
    ebda_certified: bool,
    provenance: String,
) -> CorpusEntry {
    let universe = seq.channels();
    let vcs = infer_vcs(&universe, radix.len());
    let turns = match extract_turns(&seq) {
        Ok(extraction) => extraction.into_turn_set(),
        Err(_) => naive_turns(&seq),
    };
    CorpusEntry {
        name: format!("{family}-{idx:02}"),
        family: family.to_string(),
        radix: radix.to_vec(),
        wrap: wrap.to_vec(),
        vcs,
        universe,
        turns,
        design: Some(seq),
        expected,
        ebda_certified,
        provenance,
    }
}

/// The dimension-order design for `dims` dimensions: one complete-pair
/// partition per dimension, visited in index order (XY/XYZ routing).
fn dim_order(dims: usize) -> PartitionSeq {
    let partitions: Vec<Partition> = (0..dims)
        .map(|d| {
            let dim = Dimension::new(d as u8);
            Partition::from_channels([
                Channel::new(dim, Direction::Plus),
                Channel::new(dim, Direction::Minus),
            ])
            .expect("complete pairs are disjoint")
        })
        .collect();
    PartitionSeq::from_partitions(partitions)
}

/// The acceptance-criteria demo mutation: removes the dateline from a
/// wrapped entry by swapping its design for the plain dimension-order
/// partitioning while *keeping* the now-wrong deadlock-free label. Run
/// through the campaign, the result must be caught, shrunk, and archived
/// as an honestly labeled witness.
pub fn strip_dateline(entry: &CorpusEntry) -> CorpusEntry {
    assert!(
        entry.wrap.iter().any(|&w| w),
        "strip_dateline needs a wrapped entry, got {}",
        entry.summary()
    );
    let seq = dim_order(entry.radix.len());
    let universe = seq.channels();
    let vcs = infer_vcs(&universe, entry.radix.len());
    let turns = extract_turns(&seq)
        .expect("dim-order is valid")
        .into_turn_set();
    CorpusEntry {
        name: format!("{}-stripped", entry.name),
        family: entry.family.clone(),
        radix: entry.radix.clone(),
        wrap: entry.wrap.clone(),
        vcs,
        universe,
        turns,
        design: Some(seq),
        expected: entry.expected,
        ebda_certified: true,
        provenance: format!(
            "DEMO MUTATION: dateline stripped from {} [{}], label left as-is (now wrong)",
            entry.name,
            entry.hash_hex()
        ),
    }
}

/// Family 1 (free): dimension-order routing on 2D/3D meshes. The textbook
/// EbDa base case — each partition holds exactly one complete pair.
fn mesh_xy() -> Vec<CorpusEntry> {
    let shapes: [&[usize]; 5] = [&[4, 4], &[5, 3], &[3, 6], &[3, 3, 3], &[4, 3, 2]];
    shapes
        .iter()
        .enumerate()
        .map(|(i, radix)| {
            design_entry(
                "mesh-xy",
                i,
                dim_order(radix.len()),
                radix,
                &vec![false; radix.len()],
                ExpectedVerdict::DeadlockFree,
                true,
                format!(
                    "dimension-order partitioning on a {radix:?} mesh; deadlock-free by Theorems 1-3, label re-proven by brute force"
                ),
            )
        })
        .collect()
}

/// Family 2 (free): the dateline construction on tori and mixed
/// mesh/torus shapes — wrapped dimensions ride VC 1 up to the dateline
/// and VC 2 beyond it.
fn torus_dateline() -> Vec<CorpusEntry> {
    let shapes: [(&[usize], &[bool]); 5] = [
        (&[4, 4], &[true, true]),
        (&[5, 3], &[true, false]),
        (&[3, 5], &[false, true]),
        (&[3, 3, 3], &[true, true, false]),
        (&[6, 3], &[true, true]),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, (radix, wrap))| {
            design_entry(
                "torus-dateline",
                i,
                catalog::dateline_design(radix, wrap),
                radix,
                wrap,
                ExpectedVerdict::DeadlockFree,
                true,
                format!(
                    "catalog::dateline_design on {radix:?} with wrap {wrap:?}; the VC-2 dateline breaks every wrap ring, label re-proven by brute force"
                ),
            )
        })
        .collect()
}

/// Family 3 (free): the classic turn models from the paper's catalog,
/// on unwrapped meshes.
fn turn_model() -> Vec<CorpusEntry> {
    let designs: [(&str, PartitionSeq, &[usize]); 5] = [
        ("west-first", catalog::p3_west_first(), &[4, 4]),
        ("north-last", catalog::north_last(), &[5, 4]),
        ("negative-first", catalog::p4_negative_first(), &[4, 5]),
        ("odd-even", catalog::odd_even(), &[6, 4]),
        ("dyxy", catalog::fig7b_dyxy(), &[4, 4]),
    ];
    designs
        .into_iter()
        .enumerate()
        .map(|(i, (name, seq, radix))| {
            design_entry(
                "turn-model",
                i,
                seq,
                radix,
                &vec![false; radix.len()],
                ExpectedVerdict::DeadlockFree,
                true,
                format!(
                    "catalog {name} turn model on a {radix:?} mesh; label re-proven by brute force"
                ),
            )
        })
        .collect()
}

/// Family 4 (free): Duato-style layered designs — a dimension-order
/// escape layer on VC 1 with additional adaptivity stages on VC 2,
/// expressed as EbDa partition sequences so the whole relation stays
/// constructively deadlock-free.
fn duato_escape() -> Vec<CorpusEntry> {
    let designs: [(&str, &[usize]); 5] = [
        ("X1+ X1- | Y1+ Y1- | X2+ X2- | Y2+ Y2-", &[4, 4]),
        ("X1+ X1- | Y1+ Y1- | X2+ X2- | Y2+ Y2-", &[5, 3]),
        ("X1+ X1- | Y1+ Y1- | Y2+ Y2- | X2+ X2-", &[4, 4]),
        ("X1- | X1+ Y1+ Y1- | X2+ X2- | Y2+ Y2-", &[4, 4]),
        ("X1+ X1- | Y1+ Y1- | X2+ X2- Y2+", &[4, 4]),
    ];
    designs
        .into_iter()
        .enumerate()
        .map(|(i, (text, radix))| {
            design_entry(
                "duato-escape",
                i,
                PartitionSeq::parse(text).expect("escape design parses"),
                radix,
                &vec![false; radix.len()],
                ExpectedVerdict::DeadlockFree,
                true,
                format!(
                    "escape-layered design \"{text}\" on a {radix:?} mesh (VC 1 = dimension-order escape, VC 2 = adaptive stages); label re-proven by brute force"
                ),
            )
        })
        .collect()
}

/// Family 5 (free): Algorithm 1 partitionings of 3D VC budgets on 3D
/// meshes — the paper's own constructive methodology.
fn ebda_3d() -> Vec<CorpusEntry> {
    let budgets: [(&[u8], &[usize]); 4] = [
        (&[1, 1, 1], &[3, 3, 3]),
        (&[2, 1, 1], &[3, 3, 2]),
        (&[1, 2, 1], &[2, 3, 3]),
        (&[1, 1, 2], &[3, 2, 3]),
    ];
    let mut out: Vec<CorpusEntry> = budgets
        .iter()
        .enumerate()
        .map(|(i, (vcs, radix))| {
            let seq = algorithm1::partition_network(vcs).expect("Algorithm 1 succeeds");
            design_entry(
                "ebda-3d",
                i,
                seq,
                radix,
                &vec![false; radix.len()],
                ExpectedVerdict::DeadlockFree,
                true,
                format!(
                    "Algorithm 1 on VC budget {vcs:?}, verified on a {radix:?} mesh; label re-proven by brute force"
                ),
            )
        })
        .collect();
    // A reversed Algorithm 1 sequence: Theorem 3 holds for any fixed
    // partition order, so the permutation is still deadlock-free.
    let base = algorithm1::partition_network(&[1, 1, 1]).expect("Algorithm 1 succeeds");
    let order: Vec<usize> = (0..base.len()).rev().collect();
    out.push(design_entry(
        "ebda-3d",
        4,
        base.permuted(&order),
        &[3, 3, 3],
        &[false, false, false],
        ExpectedVerdict::DeadlockFree,
        true,
        "Algorithm 1 on VC budget [1,1,1], partitions reversed (Theorem 3 holds for any fixed order), on a [3,3,3] mesh; label re-proven by brute force".to_string(),
    ));
    out
}

/// Family 6 (deadlocking): dimension-order routing on tori *without* the
/// dateline — the canonical wrap-ring deadlock. EbDa still accepts the
/// design (its guarantee is mesh-only), which is exactly why these
/// entries exist.
fn removed_dateline() -> Vec<CorpusEntry> {
    let shapes: [(&[usize], &[bool]); 5] = [
        (&[4, 4], &[true, true]),
        (&[3, 3], &[true, true]),
        (&[5, 3], &[true, false]),
        (&[3, 3, 3], &[true, false, false]),
        (&[6, 3], &[false, true]),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, (radix, wrap))| {
            design_entry(
                "removed-dateline",
                i,
                dim_order(radix.len()),
                radix,
                wrap,
                ExpectedVerdict::Deadlocking,
                true,
                format!(
                    "dimension-order partitioning on {radix:?} with wrap {wrap:?} and no dateline: the wrap rings deadlock (EbDa's acceptance is mesh-only); label proven by brute-force witness"
                ),
            )
        })
        .collect()
}

/// Family 7 (deadlocking): partition sequences that merge both complete
/// pairs into one partition, violating Theorem 1. EbDa rejects them; the
/// naive router a designer would build from the broken partitioning
/// allows every turn and deadlocks.
fn merged_partitions() -> Vec<CorpusEntry> {
    let designs: [(&str, &[usize]); 5] = [
        ("X+ X- Y+ Y-", &[4, 4]),
        ("X+ X- Y+ Y-", &[3, 3]),
        ("X+ X- Y+ Y-", &[4, 3]),
        ("X+ X- Y+ Y-", &[5, 4]),
        ("X+ X- Y+ Y- Z+ Z-", &[3, 3, 2]),
    ];
    designs
        .into_iter()
        .enumerate()
        .map(|(i, (text, radix))| {
            design_entry(
                "merged-partitions",
                i,
                PartitionSeq::parse(text).expect("merged design parses"),
                radix,
                &vec![false; radix.len()],
                ExpectedVerdict::Deadlocking,
                false,
                format!(
                    "merged partitioning \"{text}\" on a {radix:?} mesh violates Theorem 1; EbDa rejects it and the naive all-turns router deadlocks; label proven by brute-force witness"
                ),
            )
        })
        .collect()
}

/// Family 8 (deadlocking): a sound turn model with the smallest
/// deterministic turn injection that closes a cycle. The injector tries
/// single extra turns in sorted order, then pairs, and keeps the first
/// set the brute-force searcher proves deadlocking.
fn cyclic_turns() -> Vec<CorpusEntry> {
    let bases: [(&str, PartitionSeq, &[usize]); 5] = [
        ("west-first", catalog::p3_west_first(), &[4, 4]),
        ("north-last", catalog::north_last(), &[4, 4]),
        ("negative-first", catalog::p4_negative_first(), &[5, 4]),
        ("xy", catalog::p1_xy(), &[4, 4]),
        ("odd-even", catalog::odd_even(), &[5, 4]),
    ];
    bases
        .into_iter()
        .enumerate()
        .map(|(i, (name, seq, radix))| {
            let universe = seq.channels();
            let vcs = infer_vcs(&universe, radix.len());
            let base_turns = extract_turns(&seq).expect("catalog designs are valid").into_turn_set();
            let topo = Topology::mesh(radix);
            let (turns, injected) = inject_cycle(&topo, &vcs, &universe, &base_turns)
                .unwrap_or_else(|| panic!("no turn injection deadlocks {name} on {radix:?}"));
            CorpusEntry {
                name: format!("cyclic-turns-{i:02}"),
                family: "cyclic-turns".to_string(),
                radix: radix.to_vec(),
                wrap: vec![false; radix.len()],
                vcs,
                universe,
                turns,
                design: None,
                expected: ExpectedVerdict::Deadlocking,
                ebda_certified: false,
                provenance: format!(
                    "catalog {name} turns on a {radix:?} mesh plus injected turn(s) {injected}: the smallest deterministic injection closing a dependency cycle; label proven by brute-force witness"
                ),
            }
        })
        .collect()
}

/// Finds the first (in sorted candidate order) injection of one or two
/// extra turns under which the brute-force searcher finds a deadlock.
/// Returns the augmented turn set and a rendering of what was injected.
fn inject_cycle(
    topo: &Topology,
    vcs: &[u8],
    universe: &[Channel],
    base: &TurnSet,
) -> Option<(TurnSet, String)> {
    let mut missing: Vec<Turn> = Vec::new();
    for &a in universe {
        for &b in universe {
            if a != b && !base.contains(Turn::new(a, b)) {
                missing.push(Turn::new(a, b));
            }
        }
    }
    missing.sort();
    let deadlocks = |turns: &TurnSet| !brute::search(topo, vcs, universe, turns).is_deadlock_free();
    let with = |extra: &[Turn]| {
        let mut t: TurnSet = base.iter().collect();
        for &x in extra {
            t.insert(x);
        }
        t
    };
    for &t in &missing {
        let turns = with(&[t]);
        if deadlocks(&turns) {
            return Some((turns, format!("{{{}>{}}}", t.from, t.to)));
        }
    }
    for i in 0..missing.len() {
        for j in (i + 1)..missing.len() {
            let pair = [missing[i], missing[j]];
            let turns = with(&pair);
            if deadlocks(&turns) {
                return Some((
                    turns,
                    format!(
                        "{{{}>{}, {}>{}}}",
                        pair[0].from, pair[0].to, pair[1].from, pair[1].to
                    ),
                ));
            }
        }
    }
    None
}

/// Family 9 (deadlocking): the adaptive VC-2 layer of a Duato-style
/// design with its escape starved away — full adaptivity with no acyclic
/// subnetwork left to drain it.
fn escape_starved() -> Vec<CorpusEntry> {
    let shapes: [&[usize]; 4] = [&[4, 4], &[3, 3], &[5, 3], &[3, 3, 2]];
    let mut out: Vec<CorpusEntry> = shapes
        .iter()
        .enumerate()
        .map(|(i, radix)| {
            let dims = radix.len();
            let universe = vc2_pool(dims);
            let turns = all_turns(&universe);
            CorpusEntry {
                name: format!("escape-starved-{i:02}"),
                family: "escape-starved".to_string(),
                radix: radix.to_vec(),
                wrap: vec![false; dims],
                vcs: vec![2; dims],
                universe,
                turns,
                design: None,
                expected: ExpectedVerdict::Deadlocking,
                ebda_certified: false,
                provenance: format!(
                    "fully adaptive VC-2 layer on a {radix:?} mesh with the VC-1 escape removed: no acyclic subnetwork remains; label proven by brute-force witness"
                ),
            }
        })
        .collect();
    // A variant that keeps the escape channels in the universe but never
    // turns *out of* them: packets can flee into VC 1 yet the VC-2 cycle
    // is still a self-supporting configuration.
    let dims = 2;
    let mut universe = vc2_pool(dims);
    let mut turns = all_turns(&universe);
    for d in 0..dims {
        let dim = Dimension::new(d as u8);
        for dir in [Direction::Plus, Direction::Minus] {
            let esc = Channel::with_vc(dim, dir, 1);
            for &from in &vc2_pool(dims) {
                turns.insert(Turn::new(from, esc));
            }
            universe.push(esc);
        }
    }
    out.push(CorpusEntry {
        name: "escape-starved-04".to_string(),
        family: "escape-starved".to_string(),
        radix: vec![4, 4],
        wrap: vec![false, false],
        vcs: vec![2, 2],
        universe,
        turns,
        design: None,
        expected: ExpectedVerdict::Deadlocking,
        ebda_certified: false,
        provenance: "adaptive VC-2 layer on a [4,4] mesh with one-way drains into an escape that grants no onward turns: the VC-2 cycle remains self-supporting; label proven by brute-force witness".to_string(),
    });
    out
}

/// All VC-2 channel classes of a `dims`-dimensional network.
fn vc2_pool(dims: usize) -> Vec<Channel> {
    let mut pool = Vec::new();
    for d in 0..dims {
        for dir in [Direction::Plus, Direction::Minus] {
            pool.push(Channel::with_vc(Dimension::new(d as u8), dir, 2));
        }
    }
    pool
}

/// Every ordered pair of distinct channels as a turn set.
fn all_turns(universe: &[Channel]) -> TurnSet {
    let mut turns = TurnSet::new();
    for &a in universe {
        for &b in universe {
            if a != b {
                turns.insert(Turn::new(a, b));
            }
        }
    }
    turns
}

/// Family 10 (deadlocking): seed-pinned random turn relations filtered by
/// the brute-force searcher — only draws with a concrete deadlock witness
/// become entries, and the provenance records the seed and how many draws
/// were skipped.
fn adversarial_random() -> Vec<CorpusEntry> {
    let shapes: [&[usize]; 5] = [&[3, 3], &[4, 3], &[4, 4], &[3, 3, 2], &[5, 3]];
    shapes
        .iter()
        .enumerate()
        .map(|(i, radix)| {
            let dims = radix.len();
            let vcs = vec![1u8; dims];
            let mut universe = Vec::new();
            for d in 0..dims {
                for dir in [Direction::Plus, Direction::Minus] {
                    universe.push(Channel::new(Dimension::new(d as u8), dir));
                }
            }
            let topo = Topology::mesh(radix);
            let seed = 0xEBDA_C0DE + i as u64;
            let mut rng = Rng64::new(seed);
            let mut skipped = 0usize;
            let turns = loop {
                let mut t = TurnSet::new();
                for &a in &universe {
                    for &b in &universe {
                        if a != b && rng.gen_bool(0.5) {
                            t.insert(Turn::new(a, b));
                        }
                    }
                }
                if !brute::search(&topo, &vcs, &universe, &t).is_deadlock_free() {
                    break t;
                }
                skipped += 1;
                assert!(skipped < 256, "no deadlocking draw within 256 attempts");
            };
            CorpusEntry {
                name: format!("adversarial-random-{i:02}"),
                family: "adversarial-random".to_string(),
                radix: radix.to_vec(),
                wrap: vec![false; dims],
                vcs,
                universe,
                turns,
                design: None,
                expected: ExpectedVerdict::Deadlocking,
                ebda_certified: false,
                provenance: format!(
                    "random turn relation on a {radix:?} mesh (Rng64 seed {seed:#x}, p=0.5, {skipped} deadlock-free draws skipped); label proven by brute-force witness"
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_list_is_complete_and_generators_run() {
        for family in FAMILIES {
            let entries = generate_family(family);
            assert!(!entries.is_empty(), "{family} generated nothing");
            for e in &entries {
                assert_eq!(e.family, family);
                assert!(!e.universe.is_empty());
                assert_eq!(e.radix.len(), e.wrap.len());
                assert_eq!(e.radix.len(), e.vcs.len());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_family("adversarial-random");
        let b = generate_family("adversarial-random");
        assert_eq!(a, b);
    }

    #[test]
    fn free_families_carry_free_labels_and_vice_versa() {
        for family in &FAMILIES[..5] {
            for e in generate_family(family) {
                assert_eq!(e.expected, ExpectedVerdict::DeadlockFree, "{}", e.summary());
            }
        }
        for family in &FAMILIES[5..] {
            for e in generate_family(family) {
                assert_eq!(e.expected, ExpectedVerdict::Deadlocking, "{}", e.summary());
            }
        }
    }

    #[test]
    fn corpus_holds_at_least_forty_proven_entries() {
        // `generate_all` re-proves every label via the four-path check and
        // panics on any mismatch, so reaching here means all labels hold.
        let entries = generate_all();
        assert!(entries.len() >= 40, "only {} entries", entries.len());
        let mut hashes: Vec<u64> = entries.iter().map(|e| e.content_hash()).collect();
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), entries.len(), "duplicate content hashes");
    }
}
