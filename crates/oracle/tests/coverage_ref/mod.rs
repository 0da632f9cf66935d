//! The per-artifact coverage extractor as it was before each family
//! was emitted in canonical order: `Cdg::class_edges` labelling every
//! class edge with its own `String`, the turn pairs walked in `Channel`
//! order (not the byte order of their labels), a second `extract_turns`
//! for the `obligation` family. Kept as the reference
//! `coverage_differential.rs` compares the library with.

use ebda_cdg::{Cdg, ConcreteChannel};
use ebda_core::{extract_turns, Turn};
use ebda_obs::CoverageMap;
use ebda_oracle::{Artifact, Verdicts};

fn density_bucket(allowed: usize, possible: usize) -> &'static str {
    if allowed == 0 || possible == 0 {
        return "z";
    }
    let d = allowed as f64 / possible as f64;
    if d < 0.25 {
        "lo"
    } else if d < 0.6 {
        "mid"
    } else {
        "hi"
    }
}

fn for_each_turn_pair(artifact: &Artifact, mut visit: impl FnMut(usize, usize, bool)) {
    let universe = &artifact.universe;
    let mut order: Vec<usize> = (0..universe.len()).collect();
    order.sort_unstable_by_key(|&i| universe[i]);
    let turns: Vec<Turn> = artifact.turns.iter().collect();
    let mut run = 0;
    for &i in &order {
        let from = universe[i];
        run += turns[run..].iter().take_while(|t| t.from < from).count();
        let leaving = turns[run..].iter().take_while(|t| t.from == from);
        let mut leaving = leaving.peekable();
        for &j in &order {
            let to = universe[j];
            if from == to {
                continue;
            }
            while leaving.next_if(|t| t.to < to).is_some() {}
            visit(i, j, leaving.peek().is_some_and(|t| t.to == to));
        }
    }
}

fn bin(artifact: &Artifact, (allowed, possible): (usize, usize), verdicts: &Verdicts) -> String {
    let mut label = format!(
        "d{}.r{}.w{}.v{}.t{}",
        artifact.radix.len(),
        artifact.radix.iter().copied().max().unwrap_or(0),
        u8::from(artifact.wraps()),
        artifact.vcs.iter().copied().max().unwrap_or(0),
        density_bucket(allowed, possible)
    );
    label.push_str(if verdicts.brute.is_deadlock_free() {
        ".free"
    } else {
        ".deadlock"
    });
    label
}

fn class_label(c: &ConcreteChannel) -> String {
    format!("{}{}{}", c.dim, c.vc, c.dir)
}

/// The class-level edge labels present in the graph, deduplicated and
/// sorted.
pub fn class_edges(cdg: &Cdg) -> Vec<String> {
    let mut reps: Vec<ConcreteChannel> = Vec::new();
    let class_of: Vec<usize> = cdg
        .channels()
        .iter()
        .map(|c| {
            let same = |r: &ConcreteChannel| (r.dim, r.vc, r.dir) == (c.dim, c.vc, c.dir);
            reps.iter().position(same).unwrap_or_else(|| {
                reps.push(*c);
                reps.len() - 1
            })
        })
        .collect();
    let k = reps.len();
    let mut seen = vec![false; k * k];
    for (ai, &ca) in class_of.iter().enumerate() {
        for &bi in cdg.successors(ai) {
            seen[ca * k + class_of[bi as usize]] = true;
        }
    }
    let labels: Vec<String> = reps.iter().map(class_label).collect();
    let mut out: Vec<String> = (0..k * k)
        .filter(|&pair| seen[pair])
        .map(|pair| [labels[pair / k].as_str(), ">", &labels[pair % k]].concat())
        .collect();
    out.sort();
    out
}

/// The coverage contribution of one evaluated artifact, its CDG built
/// here.
pub fn extract(artifact: &Artifact, verdicts: &Verdicts) -> CoverageMap {
    let cdg = Cdg::from_turn_set(
        &artifact.topology(),
        &artifact.vcs,
        &artifact.universe,
        &artifact.turns,
    );
    let mut map = CoverageMap::new("");

    for edge in class_edges(&cdg) {
        map.record("cdg_edge", edge);
    }

    let labels: Vec<String> = artifact.universe.iter().map(ToString::to_string).collect();
    let mut point = String::new();
    let mut pair = |map: &mut CoverageMap, family: &str, from: usize, to: usize| {
        point.clear();
        point.push_str(&labels[from]);
        point.push('>');
        point.push_str(&labels[to]);
        map.record(family, &point);
    };
    let (mut allowed, mut possible) = (0, 0);
    for_each_turn_pair(artifact, |i, j, turn_allowed| {
        possible += 1;
        allowed += usize::from(turn_allowed);
        let family = if turn_allowed {
            "turn_admitted"
        } else {
            "turn_denied"
        };
        pair(&mut map, family, i, j);
    });

    if let Some(extraction) = artifact
        .design
        .as_ref()
        .and_then(|seq| extract_turns(seq).ok())
    {
        for key in extraction.obligation_keys() {
            map.record("obligation", key);
        }
    }

    for class in verdicts.duato.drained_classes(&artifact.universe) {
        map.record("escape_drain", class);
    }

    for &(ca, cb) in &verdicts.brute.pair_classes {
        pair(&mut map, "gfp_pair", ca as usize, cb as usize);
    }

    map.record("design_bin", bin(artifact, (allowed, possible), verdicts));
    map
}
