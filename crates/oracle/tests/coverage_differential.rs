//! Per-artifact coverage against the extractor it replaced.
//!
//! `coverage_ref/mod.rs` is the extractor as it was: `Cdg::class_edges`
//! with a `String` per class edge, turn pairs walked in `Channel` order,
//! a second turn extraction for the `obligation` family. The library
//! now emits every family in the byte order of its points. Over 500
//! artifacts of the seed-7 stream at each of `max_nodes` 36 and 64, the
//! entries of `corpus/seed/` and hand-built universes that stress the
//! ordering (a class listed twice, a label that is a prefix of others,
//! the parity letter, a dimension beyond T, no turns, no classes), the
//! map `Evaluation::coverage` and `artifact_coverage` return must be
//! byte-equal to the reference's — under every mutation for the corpus
//! and the hand-built artifacts.

mod coverage_ref;

use ebda_core::{
    extract_turns, Channel, Dimension, Direction, Parity, PartitionSeq, Turn, TurnSet,
};
use ebda_obs::Rng64;
use ebda_oracle::{artifact_coverage, Artifact, ArtifactKind, Evaluation, Generator, Mutation};

const MUTATIONS: [Mutation; 4] = [
    Mutation::None,
    Mutation::DallyIgnoresWrap,
    Mutation::EbdaSkipsTheorem1,
    Mutation::BruteStopsAfterFirstRound,
];

/// Asserts both library paths write the reference's bytes; returns them.
fn agree(name: &str, artifact: &Artifact, mutation: Mutation) -> String {
    let evaluation = Evaluation::of(artifact, mutation);
    let want = coverage_ref::extract(artifact, &evaluation.verdicts).to_json();
    assert_eq!(
        evaluation.coverage().to_json(),
        want,
        "{name} under {mutation}"
    );
    assert_eq!(
        artifact_coverage(artifact, &evaluation.verdicts).to_json(),
        want,
        "{name} under {mutation}, built by the wrapper"
    );
    want
}

#[test]
fn generated_streams_agree_with_the_reference() {
    for max_nodes in [36, 64] {
        let mut generator = Generator::with_max_nodes(7, max_nodes);
        let mut designs = 0;
        for _ in 0..500 {
            let artifact = generator.next_artifact();
            let json = agree(&artifact.summary(), &artifact, Mutation::None);
            designs += usize::from(json.contains("\"obligation\""));
        }
        assert!(designs > 50, "{designs} artifacts with obligations");
    }
}

#[test]
fn the_seed_corpus_agrees_with_the_reference() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/seed");
    let entries = ebda_corpus::store::load_dir(&dir).expect("corpus/seed loads");
    assert_eq!(entries.len(), 50);
    for (i, entry) in entries.iter().enumerate() {
        let artifact = entry.to_artifact(i as u64);
        for mutation in MUTATIONS {
            agree(&entry.name, &artifact, mutation);
        }
    }
}

/// An artifact over `universe` on a `radix` network: every turn
/// between distinct classes allowed with probability `density`.
fn hand_built(universe: Vec<Channel>, radix: Vec<usize>, wrap: bool, density: f64) -> Artifact {
    let mut rng = Rng64::new(universe.len() as u64 + 7);
    let mut turns = TurnSet::new();
    for &a in &universe {
        for &b in &universe {
            if a != b && rng.gen_bool(density) {
                turns.insert(Turn::new(a, b));
            }
        }
    }
    let dims = radix.len();
    Artifact {
        id: 0,
        kind: ArtifactKind::RandomTurns,
        vcs: ebda_cdg::dally::infer_vcs(&universe, dims),
        wrap: vec![wrap; dims],
        radix,
        universe,
        turns,
        design: None,
    }
}

fn hand_built_artifacts() -> Vec<(&'static str, Artifact)> {
    let (x, y) = (Dimension::X, Dimension::Y);
    let (plus, minus) = (Direction::Plus, Direction::Minus);
    let plain = |dim, dir| Channel::new(dim, dir);
    let mut out = Vec::new();

    // `X1+` is a proper prefix of `X1+[Y=3]` and `X1+[Y!=3]`, the one way
    // a channel label can be a prefix of another.
    let prefixed = vec![
        plain(x, plus).at_coord(y, 3),
        plain(x, plus),
        plain(x, plus).not_at_coord(y, 3),
        plain(x, minus),
        plain(y, plus),
        plain(y, minus),
        Channel::with_vc(y, plus, 2),
    ];
    for density in [0.0, 0.5, 1.0] {
        out.push((
            "prefixed labels",
            hand_built(prefixed.clone(), vec![3, 5], false, density),
        ));
    }
    out.push((
        "prefixed labels, torus",
        hand_built(prefixed, vec![4, 4], true, 0.4),
    ));

    // The parity letter sits between the dimension and the VC.
    let parity = vec![
        plain(x, plus).at_parity(y, Parity::Even),
        plain(x, plus).at_parity(y, Parity::Odd),
        plain(x, minus),
        plain(y, plus).at_parity(x, Parity::Odd),
        plain(y, plus).at_parity(x, Parity::Even),
        plain(y, minus),
        plain(x, plus).at_parity(x, Parity::Odd),
    ];
    out.push(("parity letters", hand_built(parity, vec![4, 3], false, 0.6)));

    // Beyond T a dimension prints as `D<k>` and a class as `D4:1+`; a
    // link kind in the `cdg_edge` family as `D41+`.
    let wide = (0..5u8)
        .flat_map(|d| {
            [
                plain(Dimension::new(d), plus),
                plain(Dimension::new(d), minus),
            ]
        })
        .chain([Channel::with_vc(Dimension::new(4), plus, 2)])
        .collect();
    out.push((
        "five dimensions",
        hand_built(wide, vec![2, 1, 2, 1, 3], false, 0.5),
    ));

    // A class listed twice is two rows and two columns of the pair walk.
    let twice = vec![
        plain(y, minus),
        plain(x, plus),
        plain(y, plus),
        plain(x, minus),
        plain(x, plus),
    ];
    out.push((
        "a class listed twice",
        hand_built(twice, vec![4, 4], false, 0.5),
    ));

    // A design whose universe lists a class twice feeds `obligation` too.
    let seq = PartitionSeq::parse("X- | X+ Y+ Y-").unwrap();
    let mut universe = seq.channels();
    universe.push(universe[1]);
    out.push((
        "a design with a class listed twice",
        Artifact {
            id: 0,
            kind: ArtifactKind::Partitioning,
            radix: vec![4, 4],
            wrap: vec![false, false],
            vcs: vec![1, 1],
            universe,
            turns: extract_turns(&seq).unwrap().into_turn_set(),
            design: Some(seq),
        },
    ));

    let ring = vec![
        plain(x, plus),
        plain(x, minus),
        plain(y, plus),
        plain(y, minus),
    ];
    out.push(("no turns", hand_built(ring, vec![4, 4], true, 0.0)));
    out.push(("no classes", hand_built(Vec::new(), vec![3, 3], false, 0.0)));
    out
}

#[test]
fn hand_built_universes_agree_with_the_reference() {
    let mut prefix_pairs = 0;
    for (name, artifact) in hand_built_artifacts() {
        for mutation in MUTATIONS {
            let json = agree(name, &artifact, mutation);
            prefix_pairs += usize::from(json.contains("\"X1+>") && json.contains("\"X1+[Y=3]>"));
        }
    }
    assert!(
        prefix_pairs > 0,
        "no map holds both X1+> and X1+[Y=3]> points"
    );
}
